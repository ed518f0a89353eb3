package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"snnsec/internal/modelio"
)

// Fuzz targets for the two byte-eating entry points the server exposes
// to untrusted clients: the predict-request parser and the checkpoint
// deserialiser. The contract is the same for both: any input yields a
// value or an error — never a panic, never an unbounded allocation.
// Seed corpora live in testdata/fuzz/<FuzzName>/ (CI runs each target
// for a short budget on top of the checked-in corpus).

// fuzzRequestSeeds returns the request seeds in two sets: bodies in the
// canonical form, which decodeCanonical decodes itself (valid or not
// once decoded), and bodies it must hand to encoding/json. Together they
// walk the edges of that form.
func fuzzRequestSeeds() (canonical, other [][]byte) {
	canonical = [][]byte{
		[]byte(`{"inputs":[[1,2],[3,4]]}`),
		[]byte(`{"model":"abc","inputs":[[0.5]],"deadline_ms":100}`),
		[]byte(`{"inputs":[[1],[2,3]]}`),
		[]byte(`{"inputs":[[1]],"deadline_ms":-5}`),
		canonicalBody(256),
		[]byte(`{"inputs":[[-0,1E+2,1e-2,0.5e1]]}`),
		[]byte(" \t\r\n{ \"model\" : \"m\" ,\n\"inputs\" :\t[ [ 1 , 2 ] ,\r[ 3 , 4 ] ] , \"deadline_ms\" : 7 }\n "),
		[]byte(`{"inputs":[[1]],"deadline_ms":-0}`),
		[]byte(`{}`),
	}
	other = [][]byte{
		[]byte(`{"inputs":[]}`),
		[]byte(`{"inputs":[[1]],"bogus":true}`),
		[]byte(`{"inputs":[[1]]}{"inputs":[[2]]}`),
		[]byte(`{"inputs":[[1e308,-1e308,null]]}`),
		[]byte(`[]`),
		[]byte(`null`),
		[]byte(``),
		[]byte(`{`),
		[]byte("\xff\xfe{}"),
		[]byte(`{"Inputs":[[1]]}`),
		[]byte(`{"inputs":[[1]],"Inputs":[[2]]}`),
		[]byte(`{"inputs":[[1]],"inputs":[[2]]}`),
		[]byte(`{"inp\u0075ts":[[1]]}`),
		[]byte(`{"inputs":[null]}`),
		[]byte(`{"inputs":[[1],null]}`),
		[]byte(`{"inputs":[[1,null]]}`),
		[]byte(`{"inputs":null}`),
		[]byte(`{"inputs":[[01]]}`),
		[]byte(`{"inputs":[[.5]]}`),
		[]byte(`{"inputs":[[1e999]]}`),
		[]byte(`{"inputs":[[1.]]}`),
		[]byte(`{"inputs":[[]]}`),
		[]byte(`{"model":"a\"b","inputs":[[1]]}`),
		[]byte(`{"model":"\u0061","inputs":[[1]]}`),
		[]byte(`{"model":null,"inputs":[[1]]}`),
		[]byte(`{"inputs":[[1]],"deadline_ms":1.0}`),
		[]byte(`{"inputs":[[1]],"deadline_ms":1e2}`),
		[]byte(`{"inputs":[[1]],"deadline_ms":9223372036854775808}`),
		[]byte(`{"inputs":[[1]],}`),
		[]byte(`{"inputs":[[1]]} x`),
	}
	return canonical, other
}

// canonicalBody is a request of one n-float row as json.Marshal writes
// it, the form serving clients send.
func canonicalBody(n int) []byte {
	row := make([]float64, n)
	for i := range row {
		row[i] = float64(i%17-8) / 7
	}
	b, err := json.Marshal(PredictRequest{Inputs: [][]float64{row}})
	if err != nil {
		panic(err)
	}
	return b
}

// The oracle below holds trivially for a canonical decoder that declines
// everything; this pins which seeds it decodes itself.
func TestCanonicalDecoderScope(t *testing.T) {
	canonical, other := fuzzRequestSeeds()
	for _, b := range canonical {
		if _, ok := decodeCanonical(b); !ok {
			t.Errorf("canonical decoder declined %q", b)
		}
	}
	for _, b := range other {
		if _, ok := decodeCanonical(b); ok {
			t.Errorf("canonical decoder accepted %q", b)
		}
	}
}

// BenchmarkParsePredictRequest decodes a 256-float request, the size of
// one 16×16 sample, in the canonical form and with a case-folded key
// that sends it to encoding/json.
func BenchmarkParsePredictRequest(b *testing.B) {
	canonical := canonicalBody(256)
	fallback := bytes.Replace(canonical, []byte(`"inputs"`), []byte(`"Inputs"`), 1)
	for _, bc := range []struct {
		name string
		body []byte
	}{{"canonical", canonical}, {"fallback", fallback}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(bc.body)))
			for b.Loop() {
				if _, err := ParsePredictRequest(bc.body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func FuzzParsePredictRequest(f *testing.F) {
	canonical, other := fuzzRequestSeeds()
	for _, seed := range append(canonical, other...) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		// Differential oracle: a body the canonical decoder accepts must
		// decode to the same request under encoding/json, bit for bit.
		if fast, ok := decodeCanonical(b); ok {
			slow, err := decodeJSON(b)
			if err != nil {
				t.Fatalf("canonical decoder accepted %q, encoding/json refused it: %v", b, err)
			}
			if !sameRequest(fast, slow) {
				t.Fatalf("decoders disagree on %q:\ncanonical     %+v\nencoding/json %+v", b, fast, slow)
			}
		}
		req, err := ParsePredictRequest(b)
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("non-ErrBadRequest error: %v", err)
			}
			return
		}
		// Accepted requests must satisfy the documented invariants the
		// server relies on downstream.
		if len(req.Inputs) == 0 || len(req.Inputs) > MaxRequestInputs {
			t.Fatalf("accepted batch of %d inputs", len(req.Inputs))
		}
		want := len(req.Inputs[0])
		if want == 0 || want > MaxSampleLen {
			t.Fatalf("accepted sample length %d", want)
		}
		for i, row := range req.Inputs {
			if len(row) != want {
				t.Fatalf("accepted ragged row %d (%d vs %d)", i, len(row), want)
			}
		}
		if req.DeadlineMS < 0 {
			t.Fatalf("accepted negative deadline %d", req.DeadlineMS)
		}
	})
}

// sameRequest compares two decoded requests field by field, nil slices
// apart from empty ones and floats by their bits (reflect.DeepEqual
// holds -0 equal to +0).
func sameRequest(a, b *PredictRequest) bool {
	if a.Model != b.Model || a.DeadlineMS != b.DeadlineMS ||
		len(a.Inputs) != len(b.Inputs) || (a.Inputs == nil) != (b.Inputs == nil) {
		return false
	}
	for i, ra := range a.Inputs {
		rb := b.Inputs[i]
		if len(ra) != len(rb) || (ra == nil) != (rb == nil) {
			return false
		}
		for j := range ra {
			if math.Float64bits(ra[j]) != math.Float64bits(rb[j]) {
				return false
			}
		}
	}
	return true
}

func fuzzCheckpointSeeds(f *testing.F) [][]byte {
	var ok bytes.Buffer
	if err := modelio.Save(&ok, map[string]string{"arch": "snn", "vth": "0.25"}, nil); err != nil {
		f.Fatalf("save seed: %v", err)
	}
	valid := ok.Bytes()
	seeds := [][]byte{
		valid,
		valid[:len(valid)-1],           // truncated tail
		valid[:8],                      // magic only
		[]byte("SNNSEC01"),             // bare magic
		[]byte("SNNSEC99 junk"),        // wrong magic
		{},                             // empty
		bytes.Repeat([]byte{0xff}, 64), // huge length prefixes
	}
	// A corrupted copy: flip a byte inside the header region.
	corrupt := append([]byte(nil), valid...)
	if len(corrupt) > 10 {
		corrupt[10] ^= 0x80
	}
	return append(seeds, corrupt)
}

func FuzzFromBytes(f *testing.F) {
	for _, seed := range fuzzCheckpointSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := modelio.FromBytes(b)
		if err != nil {
			return
		}
		// A successfully parsed model must respect the format bounds.
		for _, p := range m.Params {
			if p.Data == nil {
				t.Fatalf("param %q has nil data", p.Name)
			}
			n := 1
			for _, d := range p.Data.Shape() {
				if d <= 0 {
					t.Fatalf("param %q has non-positive dim %v", p.Name, p.Data.Shape())
				}
				n *= d
			}
			if p.Data.Len() != n {
				t.Fatalf("param %q: %d elements for shape %v", p.Name, p.Data.Len(), p.Data.Shape())
			}
		}
	})
}
