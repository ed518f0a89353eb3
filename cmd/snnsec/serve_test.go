package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"snnsec/internal/core"
	"snnsec/internal/modelio"
	"snnsec/internal/serve"
	"snnsec/internal/tensor"
	"snnsec/internal/train"
)

// TestServeRequiresCkpt pins the flag contract.
func TestServeRequiresCkpt(t *testing.T) {
	if err := run([]string{"serve"}); err == nil || !strings.Contains(err.Error(), "-ckpt") {
		t.Errorf("serve without ckpt: %v", err)
	}
}

// TestServeEndToEnd is the in-process version of the CI serve smoke:
// train a tiny low-Vth SNN, load the checkpoint twice — once behind the
// server, once offline — and check a served batch's logits are
// bit-identical to the offline taped forward on the same samples. Two
// separate model instances keep the Poisson encoder states independent
// and identically seeded, exactly like the fresh-process comparison in
// CI.
func TestServeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model; skipped in -short mode")
	}
	t.Setenv(core.ScaleEnv, "tiny")
	ckpt := filepath.Join(t.TempDir(), "demo.ckpt")
	// A low threshold keeps the tiny network spiking, so the demo model
	// emits live logits instead of a silent all-zero readout.
	if err := run([]string{"train", "-model", "snn", "-vth", "0.2", "-T", "4", "-out", ckpt}); err != nil {
		t.Fatalf("train: %v", err)
	}

	s := core.ScaleFromEnv()
	m, err := modelio.LoadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	_, testDS, err := core.LoadData(s.Data)
	if err != nil {
		t.Fatal(err)
	}

	// Server side.
	served, sample, err := core.BuildFromCheckpoint(s, m)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := serve.NewEngine(served, nil, sample)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewServer(serve.Config{}, &serve.Model{Fingerprint: "demo", Runner: engine}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// One request with the first 3 test images, flattened.
	const n = 3
	sampleLen := 1
	for _, d := range sample {
		sampleLen *= d
	}
	req := serve.PredictRequest{Inputs: make([][]float64, n)}
	xd := testDS.X.Data()
	for i := 0; i < n; i++ {
		req.Inputs[i] = xd[i*sampleLen : (i+1)*sampleLen]
	}
	body, _ := json.Marshal(req)
	var out bytes.Buffer
	if err := srv.ServeLinesContext(context.Background(), bytes.NewReader(append(body, '\n')), &out); err != nil {
		t.Fatalf("ServeLinesContext: %v", err)
	}
	var resp serve.PredictResponse
	if err := json.Unmarshal(out.Bytes(), &resp); err != nil {
		t.Fatalf("decode %q: %v", out.String(), err)
	}

	// Offline side: a fresh model instance from the same checkpoint, so
	// its encoder starts from the same seed.
	offline, _, err := core.BuildFromCheckpoint(s, m)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.FromSlice(xd[:n*sampleLen], append([]int{n}, sample...)...)
	logits := train.LogitsOn(nil, offline, x)
	ld := logits.Data()
	classes := logits.Dim(1)
	live := false
	for i := 0; i < n; i++ {
		for c := 0; c < classes; c++ {
			got := resp.Logits[i][c]
			want := ld[i*classes+c]
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("sample %d class %d: served %v vs offline %v", i, c, got, want)
			}
			if got != 0 {
				live = true
			}
		}
	}
	if !live {
		t.Fatal("demo model emitted all-zero logits; lower the training Vth")
	}
	t.Logf("served preds: %v", resp.Preds)
}
