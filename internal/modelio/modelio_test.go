package modelio

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"snnsec/internal/nn"
	"snnsec/internal/tensor"
)

func sampleParams() []*nn.Param {
	r := tensor.NewRand(1, 2)
	return []*nn.Param{
		nn.NewParam("layer0.W", tensor.RandN(r, 0, 1, 3, 4)),
		nn.NewParam("layer0.B", tensor.RandN(r, 0, 1, 4)),
		nn.NewParam("conv.W", tensor.RandN(r, 0, 1, 2, 1, 3, 3)),
	}
}

func TestRoundTrip(t *testing.T) {
	params := sampleParams()
	meta := map[string]string{"arch": "lenet5-snn", "vth": "1.0", "T": "48"}
	var buf bytes.Buffer
	if err := Save(&buf, meta, params); err != nil {
		t.Fatal(err)
	}
	m, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m.Meta["arch"] != "lenet5-snn" || m.Meta["T"] != "48" {
		t.Errorf("meta = %v", m.Meta)
	}
	if len(m.Params) != 3 {
		t.Fatalf("params = %d", len(m.Params))
	}
	for i, sp := range m.Params {
		if sp.Name != params[i].Name {
			t.Errorf("param %d name %q", i, sp.Name)
		}
		if !sp.Data.AllClose(params[i].Data, 0) {
			t.Errorf("param %q data mismatch", sp.Name)
		}
	}
}

func TestApplyRestoresWeights(t *testing.T) {
	params := sampleParams()
	var buf bytes.Buffer
	if err := Save(&buf, nil, params); err != nil {
		t.Fatal(err)
	}
	m, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh params with the same structure but different values.
	fresh := sampleParams()
	for _, p := range fresh {
		p.Data.Zero()
	}
	if err := m.Apply(fresh); err != nil {
		t.Fatal(err)
	}
	for i := range fresh {
		if !fresh[i].Data.AllClose(params[i].Data, 0) {
			t.Errorf("param %d not restored", i)
		}
	}
}

func TestApplyMismatches(t *testing.T) {
	params := sampleParams()
	var buf bytes.Buffer
	if err := Save(&buf, nil, params); err != nil {
		t.Fatal(err)
	}
	m, _ := Load(&buf)

	short := sampleParams()[:2]
	if err := m.Apply(short); err == nil || !strings.Contains(err.Error(), "params") {
		t.Errorf("count mismatch not caught: %v", err)
	}

	renamed := sampleParams()
	renamed[1].Name = "other"
	if err := m.Apply(renamed); err == nil || !strings.Contains(err.Error(), "name") {
		t.Errorf("name mismatch not caught: %v", err)
	}

	reshaped := sampleParams()
	reshaped[0] = nn.NewParam("layer0.W", tensor.New(4, 3))
	if err := m.Apply(reshaped); err == nil || !strings.Contains(err.Error(), "shape") {
		t.Errorf("shape mismatch not caught: %v", err)
	}
}

func TestApplyIsAtomicOnError(t *testing.T) {
	params := sampleParams()
	var buf bytes.Buffer
	if err := Save(&buf, nil, params); err != nil {
		t.Fatal(err)
	}
	m, _ := Load(&buf)
	target := sampleParams()
	for _, p := range target {
		p.Data.CopyFrom(tensor.Full(7, p.Data.Shape()...))
	}
	target[2] = nn.NewParam("conv.W", tensor.New(9, 9)) // wrong shape
	if err := m.Apply(target); err == nil {
		t.Fatal("bad apply succeeded")
	}
	// Earlier params must be untouched: validation precedes mutation.
	if !target[0].Data.AllClose(tensor.Full(7, 3, 4), 0) {
		t.Error("Apply mutated params before validating all of them")
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("NOTMAGIC plus junk"))); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic not caught: %v", err)
	}
}

func TestTruncatedFile(t *testing.T) {
	params := sampleParams()
	var buf bytes.Buffer
	if err := Save(&buf, map[string]string{"k": "v"}, params); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{4, 9, 15, len(full) / 2, len(full) - 3} {
		if _, err := Load(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d not caught", cut)
		}
	}
}

func TestEmptyModel(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, nil, nil); err != nil {
		t.Fatal(err)
	}
	m, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Params) != 0 || len(m.Meta) != 0 {
		t.Error("empty model round-trip not empty")
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.snnsec")
	params := sampleParams()
	if err := SaveFile(path, map[string]string{"a": "b"}, params); err != nil {
		t.Fatal(err)
	}
	m, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Meta["a"] != "b" {
		t.Error("file round-trip lost metadata")
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file did not error")
	}
}

func TestDeterministicOutput(t *testing.T) {
	params := sampleParams()
	meta := map[string]string{"z": "1", "a": "2", "m": "3"}
	var b1, b2 bytes.Buffer
	if err := Save(&b1, meta, params); err != nil {
		t.Fatal(err)
	}
	if err := Save(&b2, meta, params); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("two saves of identical state differ (map iteration leaked in)")
	}
}
