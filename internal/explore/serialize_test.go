package explore

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"snnsec/internal/attack"
)

func roundTripResult() *Result {
	return &Result{
		Vths:     []float64{0.5, 1},
		Ts:       []int{4, 8},
		Epsilons: []float64{1, 1.5},
		Points: []Point{
			{Vth: 0.5, T: 4, CleanAccuracy: 0.82, Learnable: true,
				Robustness: []attack.CurvePoint{{Eps: 1, RobustAccuracy: 0.3}, {Eps: 1.5, RobustAccuracy: 0.1}}},
			{Vth: 1, T: 4, CleanAccuracy: 0.55},
			{Vth: 0.5, T: 8, CleanAccuracy: 0.9, Learnable: true,
				Robustness: []attack.CurvePoint{{Eps: 1, RobustAccuracy: 0.5}, {Eps: 1.5, RobustAccuracy: 0.2}}},
			{Vth: 1, T: 8, Err: errors.New("training diverged")},
		},
	}
}

// readResult decodes a WriteJSON stream through the wire schema.
func readResult(t *testing.T, r io.Reader) *Result {
	t.Helper()
	var jr jsonResult
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&jr); err != nil {
		t.Fatal(err)
	}
	res := NewPartialResult(jr.Vths, jr.Ts, jr.Epsilons)
	if len(jr.Points) != len(res.Points) {
		t.Fatalf("%d points for a %d x %d grid", len(jr.Points), len(jr.Vths), len(jr.Ts))
	}
	for i, wp := range jr.Points {
		res.Set(i, wp.Point())
	}
	return res
}

func TestJSONRoundTrip(t *testing.T) {
	orig := roundTripResult()
	var buf bytes.Buffer
	if err := orig.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got := readResult(t, &buf)
	if len(got.Points) != 4 {
		t.Fatalf("points = %d", len(got.Points))
	}
	for i := range orig.Points {
		o, g := orig.Points[i], got.Points[i]
		if o.Vth != g.Vth || o.T != g.T || o.CleanAccuracy != g.CleanAccuracy || o.Learnable != g.Learnable {
			t.Errorf("point %d changed: %+v vs %+v", i, o, g)
		}
		if len(o.Robustness) != len(g.Robustness) {
			t.Errorf("point %d robustness length changed", i)
		}
	}
	if got.Points[3].Err == nil || !strings.Contains(got.Points[3].Err.Error(), "diverged") {
		t.Errorf("error not preserved: %v", got.Points[3].Err)
	}
	// Helpers still work on the loaded result.
	if got.LearnableCount() != 2 {
		t.Errorf("LearnableCount = %d", got.LearnableCount())
	}
	if v, ok := got.At(0, 1).RobustAt(1.5); !ok || v != 0.2 {
		t.Errorf("RobustAt after round trip = %v, %v", v, ok)
	}
}

func TestJSONFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.json")
	if err := roundTripResult().SaveJSON(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if got := readResult(t, f); len(got.Points) != 4 {
		t.Errorf("points = %d", len(got.Points))
	}
}

// TestWirePointBitExactRoundTrip pins the property the distributed
// grid's merge depends on: a point serialised to its wire form (the
// checkpoint and protocol format) and parsed back is bit-identical,
// float bits included.
func TestWirePointBitExactRoundTrip(t *testing.T) {
	// Accuracies from real division land on non-terminating binary
	// fractions — the case where shortest-form float encoding matters.
	orig := Point{
		Vth: 0.75, T: 12,
		CleanAccuracy: 23.0 / 29.0,
		Learnable:     true,
		Robustness: []attack.CurvePoint{
			{Eps: 0.1, RobustAccuracy: 17.0 / 31.0},
			{Eps: 1.5, RobustAccuracy: 1.0 / 3.0},
		},
	}
	raw, err := json.Marshal(orig.Wire())
	if err != nil {
		t.Fatal(err)
	}
	var wp WirePoint
	if err := json.Unmarshal(raw, &wp); err != nil {
		t.Fatal(err)
	}
	got := wp.Point()
	if math.Float64bits(got.CleanAccuracy) != math.Float64bits(orig.CleanAccuracy) {
		t.Errorf("clean accuracy bits changed: %x vs %x",
			math.Float64bits(got.CleanAccuracy), math.Float64bits(orig.CleanAccuracy))
	}
	for i := range orig.Robustness {
		if got.Robustness[i] != orig.Robustness[i] {
			t.Errorf("robustness %d changed: %+v vs %+v", i, got.Robustness[i], orig.Robustness[i])
		}
	}
	if got.Vth != orig.Vth || got.T != orig.T || got.Learnable != orig.Learnable {
		t.Errorf("point fields changed: %+v vs %+v", got, orig)
	}
	// Errors flatten to their message.
	failed := Point{Vth: 1, T: 2, Err: errors.New("boom")}
	back := failed.Wire().Point()
	if back.Err == nil || back.Err.Error() != "boom" {
		t.Errorf("error not preserved: %v", back.Err)
	}
}

// TestPartialCheckpointMergeEqualsOriginal is the checkpoint round trip
// of a distributed run in miniature: every point of a result is written
// as an individual wire file, reloaded in scrambled order into a partial
// result, and the merge must serialise byte-identically to the original.
func TestPartialCheckpointMergeEqualsOriginal(t *testing.T) {
	orig := roundTripResult()
	var files [][]byte
	for i := range orig.Points {
		raw, err := json.Marshal(orig.Points[i].Wire())
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, raw)
	}
	merged := NewPartialResult(orig.Vths, orig.Ts, orig.Epsilons)
	for _, i := range []int{2, 0, 3, 1} { // arrival order must not matter
		var wp WirePoint
		if err := json.Unmarshal(files[i], &wp); err != nil {
			t.Fatal(err)
		}
		merged.Set(i, wp.Point())
	}
	if missing := merged.MissingIndices(); len(missing) != 0 {
		t.Fatalf("merged result still missing %v", missing)
	}
	var origJSON, mergedJSON bytes.Buffer
	if err := orig.WriteJSON(&origJSON); err != nil {
		t.Fatal(err)
	}
	if err := merged.WriteJSON(&mergedJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(origJSON.Bytes(), mergedJSON.Bytes()) {
		t.Errorf("merged result differs from original:\n got: %s\nwant: %s", mergedJSON.Bytes(), origJSON.Bytes())
	}
}
