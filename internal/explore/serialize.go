package explore

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"snnsec/internal/attack"
)

// jsonResult is the stable on-disk schema for a grid result. Errors are
// flattened to strings so results round-trip through JSON.
type jsonResult struct {
	Vths     []float64   `json:"vths"`
	Ts       []int       `json:"ts"`
	Epsilons []float64   `json:"epsilons"`
	Points   []WirePoint `json:"points"`
}

// WirePoint is the stable JSON schema of one grid point. It is the unit
// shared by result files (WriteJSON), per-point checkpoint files
// and the distributed grid protocol, so a point computed anywhere
// round-trips to the same Point: encoding/json renders float64 in the
// shortest form that parses back to the identical bits, and the error is
// flattened to its message.
type WirePoint struct {
	Vth        float64             `json:"vth"`
	T          int                 `json:"t"`
	CleanAcc   float64             `json:"clean_accuracy"`
	Learnable  bool                `json:"learnable"`
	Robustness []attack.CurvePoint `json:"robustness,omitempty"`
	Err        string              `json:"error,omitempty"`
}

// Wire converts a point to its serialisable form.
func (p *Point) Wire() WirePoint {
	wp := WirePoint{
		Vth:        p.Vth,
		T:          p.T,
		CleanAcc:   p.CleanAccuracy,
		Learnable:  p.Learnable,
		Robustness: p.Robustness,
	}
	if p.Err != nil {
		wp.Err = p.Err.Error()
	}
	return wp
}

// Point converts the wire form back. The inverse of Wire up to error
// identity: a non-empty Err becomes a fresh error with the same message.
func (wp WirePoint) Point() Point {
	p := Point{
		Vth:           wp.Vth,
		T:             wp.T,
		CleanAccuracy: wp.CleanAcc,
		Learnable:     wp.Learnable,
		Robustness:    wp.Robustness,
	}
	if wp.Err != "" {
		p.Err = fmt.Errorf("%s", wp.Err)
	}
	return p
}

// WriteJSON serialises the result as indented JSON in the stable
// result schema.
func (r *Result) WriteJSON(w io.Writer) error {
	jr := jsonResult{
		Vths:     r.Vths,
		Ts:       r.Ts,
		Epsilons: r.Epsilons,
		Points:   make([]WirePoint, len(r.Points)),
	}
	for i := range r.Points {
		jr.Points[i] = r.Points[i].Wire()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jr)
}

// SaveJSON writes the result to a file.
func (r *Result) SaveJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
