// Package report renders experiment results as ASCII heat maps, aligned
// curve tables and CSV — the textual equivalents of the paper's Figures
// 1 and 6-9.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"

	"snnsec/internal/attack"
	"snnsec/internal/explore"
)

// Grid is a labelled 2-D table of values; NaN cells are "missing" (e.g.
// non-learnable grid points whose robustness was never measured).
type Grid struct {
	Title     string
	RowName   string // e.g. "T"
	ColName   string // e.g. "Vth"
	RowLabels []string
	ColLabels []string
	Cells     [][]float64 // [row][col]
}

// NewGrid allocates a rows×cols grid filled with NaN.
func NewGrid(title, rowName, colName string, rowLabels, colLabels []string) *Grid {
	cells := make([][]float64, len(rowLabels))
	for i := range cells {
		cells[i] = make([]float64, len(colLabels))
		for j := range cells[i] {
			cells[i][j] = math.NaN()
		}
	}
	return &Grid{
		Title: title, RowName: rowName, ColName: colName,
		RowLabels: rowLabels, ColLabels: colLabels, Cells: cells,
	}
}

// shade maps a value in [0,1] to a coarse ASCII intensity ramp so heat
// maps are readable in a terminal.
func shade(v float64) byte {
	const ramp = " .:-=+*#%@"
	if math.IsNaN(v) {
		return '?'
	}
	if v < 0 {
		v = 0
	} else if v > 1 {
		v = 1
	}
	i := int(v * float64(len(ramp)-1))
	return ramp[i]
}

// WriteASCII renders the grid with one "value shade" cell per entry plus
// the numeric values, rows printed top-to-bottom in reverse order (so the
// largest row label is at the top, matching the paper's heat maps).
func (g *Grid) WriteASCII(w io.Writer) {
	fmt.Fprintf(w, "%s\n", g.Title)
	width := 7
	fmt.Fprintf(w, "%8s |", g.RowName+`\`+g.ColName)
	for _, c := range g.ColLabels {
		fmt.Fprintf(w, " %*s", width, c)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%s-+%s\n", strings.Repeat("-", 8), strings.Repeat("-", (width+1)*len(g.ColLabels)))
	for i := len(g.RowLabels) - 1; i >= 0; i-- {
		fmt.Fprintf(w, "%8s |", g.RowLabels[i])
		for j := range g.ColLabels {
			v := g.Cells[i][j]
			if math.IsNaN(v) {
				fmt.Fprintf(w, " %*s", width, "--")
			} else {
				fmt.Fprintf(w, " %c%*.3f", shade(v), width-1, v)
			}
		}
		fmt.Fprintln(w)
	}
}

// WriteCSV renders the grid as CSV with the row label in the first
// column; missing cells are empty.
func (g *Grid) WriteCSV(w io.Writer) {
	fmt.Fprintf(w, "%s/%s", g.RowName, g.ColName)
	for _, c := range g.ColLabels {
		fmt.Fprintf(w, ",%s", c)
	}
	fmt.Fprintln(w)
	for i, r := range g.RowLabels {
		fmt.Fprint(w, r)
		for j := range g.ColLabels {
			if math.IsNaN(g.Cells[i][j]) {
				fmt.Fprint(w, ",")
			} else {
				fmt.Fprintf(w, ",%.4f", g.Cells[i][j])
			}
		}
		fmt.Fprintln(w)
	}
}

// AccuracyGrid converts an exploration result into the Figure-6 heat map
// (clean accuracy per (Vth, T)). Results may be partial — a checkpointed
// distributed run rendered mid-sweep, or a budget-limited invocation —
// in which case the never-computed points render as missing cells rather
// than as zero accuracy.
func AccuracyGrid(res *explore.Result) *Grid {
	g := newGridFrom(res, "Clean accuracy heat map (Figure 6)")
	for ti := range res.Ts {
		for vi := range res.Vths {
			if !res.Computed(ti*len(res.Vths) + vi) {
				continue
			}
			g.Cells[ti][vi] = res.At(vi, ti).CleanAccuracy
		}
	}
	return g
}

// RobustnessGrid converts an exploration result into a Figure-7/8-style
// heat map of robust accuracy at the given ε. Non-learnable points — and
// the never-computed points of a partial result — stay NaN.
func RobustnessGrid(res *explore.Result, eps float64) *Grid {
	g := newGridFrom(res, fmt.Sprintf("Robust accuracy heat map under PGD eps=%g (Figures 7/8)", eps))
	for ti := range res.Ts {
		for vi := range res.Vths {
			p := res.At(vi, ti)
			if v, ok := p.RobustAt(eps); ok {
				g.Cells[ti][vi] = v
			}
		}
	}
	return g
}

func newGridFrom(res *explore.Result, title string) *Grid {
	rows := make([]string, len(res.Ts))
	for i, t := range res.Ts {
		rows[i] = fmt.Sprintf("%d", t)
	}
	cols := make([]string, len(res.Vths))
	for i, v := range res.Vths {
		cols[i] = trimFloat(v)
	}
	return NewGrid(title, "T", "Vth", rows, cols)
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.2f", v)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// Series is one named robustness curve (one line of Figure 1 or 9).
type Series struct {
	Name   string
	Points []attack.CurvePoint
}

// WriteCurves renders aligned columns: ε followed by the robust accuracy
// of every series, reproducing the paper's accuracy-vs-ε plots as a
// table. Series may sample different ε sets; missing entries print "--".
func WriteCurves(w io.Writer, title string, series []Series) {
	fmt.Fprintf(w, "%s\n", title)
	// Union of ε values, ascending.
	seen := map[float64]bool{}
	var eps []float64
	for _, s := range series {
		for _, p := range s.Points {
			if !seen[p.Eps] {
				seen[p.Eps] = true
				eps = append(eps, p.Eps)
			}
		}
	}
	for i := 1; i < len(eps); i++ {
		for j := i; j > 0 && eps[j] < eps[j-1]; j-- {
			eps[j], eps[j-1] = eps[j-1], eps[j]
		}
	}
	fmt.Fprintf(w, "%8s", "eps")
	for _, s := range series {
		fmt.Fprintf(w, " %16s", clip(s.Name, 16))
	}
	fmt.Fprintln(w)
	for _, e := range eps {
		fmt.Fprintf(w, "%8.3f", e)
		for _, s := range series {
			v, ok := lookupEps(s.Points, e)
			if ok {
				fmt.Fprintf(w, " %16.3f", v)
			} else {
				fmt.Fprintf(w, " %16s", "--")
			}
		}
		fmt.Fprintln(w)
	}
}

func lookupEps(points []attack.CurvePoint, eps float64) (float64, bool) {
	for _, p := range points {
		if p.Eps == eps {
			return p.RobustAccuracy, true
		}
	}
	return 0, false
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
