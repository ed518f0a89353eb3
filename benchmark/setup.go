package main

import (
	"fmt"
	"runtime"
	"strconv"
)

// serial is the width-1 backend every engine, tape and attack of the
// benchmark runs on (steadiness rule 2): per-kernel fork-join needs both
// vCPUs of a small shared host quiet at once, and is slower than inline
// execution at these shapes anyway — compute.default_vs_serial_forward
// records by how much.
var serial backend = newSerial()

const (
	snnVth = 1.0
	snnT   = 8
)

// setProcs holds the process to n Ps (n > 0) and returns a function that
// undoes it. Work that is one goroutine is run on one P here: the tape-
// paying and streaming paths collect garbage tens to hundreds of times a
// second, each cycle a hand-shake between Ps, and on a small shared host
// the other P's vCPU is not always running. With two Ps a stream_session
// lap wandered between 0.34 and 0.55 ms per window inside one run and a
// ten-seed set spread by 31–42 %; with one P it is faster (the collector
// no longer fights the mutator for a shared core) and laps stay within
// ±5 %.
func setProcs(n int) (undo func()) {
	if n <= 0 {
		return func() {}
	}
	prev := runtime.GOMAXPROCS(n)
	return func() { runtime.GOMAXPROCS(prev) }
}

// trainedSet is what set-up hands a workload: serialised checkpoints
// only, so every lap starts from bytes and work moved into set-up shows.
type trainedSet struct {
	cnn, snn       []byte
	cnnAcc, snnAcc float64
}

// trainCheckpoints trains the CNN (when wantCNN) and SNN(1, 8) at bench
// scale, one after the other on the serial backend. The program is
// fixed: data, initialisation and shuffling use BenchScale's own seeds,
// never --seed.
func trainCheckpoints(wantCNN bool) (*trainedSet, error) {
	s := benchScale()
	trainDS, testDS, err := loadData(s.Data)
	if err != nil {
		return nil, err
	}
	// Scale.TrainCNN/TrainSNN take no backend, they train on the process
	// default; make that the serial one while they run. Training is one
	// goroutine.
	setDefault(serial)
	defer setDefault(nil)
	defer setProcs(1)()
	set := &trainedSet{}
	if wantCNN {
		cnn, acc, err := s.TrainCNN(trainDS, testDS)
		if err != nil {
			return nil, fmt.Errorf("training the CNN: %w", err)
		}
		set.cnnAcc = acc
		if set.cnn, err = modelioBytes(map[string]string{"scale": s.Name, "model": "cnn"}, cnn.Params()); err != nil {
			return nil, err
		}
	}
	net, acc, err := s.TrainSNN(snnVth, snnT, trainDS, testDS)
	if err != nil {
		return nil, fmt.Errorf("training the SNN: %w", err)
	}
	set.snnAcc = acc
	set.snn, err = modelioBytes(snnMeta(s.Name, snnVth, snnT), net.Params())
	return set, err
}

func snnMeta(scaleName string, vth float64, T int) map[string]string {
	return map[string]string{
		"scale": scaleName,
		"model": "snn",
		"vth":   strconv.FormatFloat(vth, 'g', -1, 64),
		"T":     strconv.Itoa(T),
	}
}

// modelFromBytes is the path every lap takes from checkpoint bytes to a
// classifier: parse, rebuild with the deterministic constructors, apply.
func modelFromBytes(raw []byte) (classifier, []int, error) {
	m, err := modelioFromBytes(raw)
	if err != nil {
		return nil, nil, err
	}
	return buildFromCheckpoint(benchScale(), m)
}

// snnFromBytes is modelFromBytes for the SNN checkpoint, typed.
func snnFromBytes(raw []byte) (*snnNetwork, error) {
	model, _, err := modelFromBytes(raw)
	if err != nil {
		return nil, err
	}
	net, ok := model.(*snnNetwork)
	if !ok {
		return nil, fmt.Errorf("checkpoint rebuilt as %T, not a spiking network", model)
	}
	return net, nil
}

// engineFromBytes goes one step further, to the tape-free engine on be.
func engineFromBytes(raw []byte, be backend) (*engine, error) {
	model, sample, err := modelFromBytes(raw)
	if err != nil {
		return nil, err
	}
	return serveNewEngine(model, be, sample)
}

// evalDigits renders n seed-drawn evaluation digits in normalised units.
func evalDigits(n int, seed uint64) (*datasetT, error) {
	cfg := defaultSynthConfig(n, seed)
	cfg.Size = benchScale().Net.ImageSize
	ds, err := synthDigits(cfg)
	if err != nil {
		return nil, err
	}
	ds.Normalize()
	return ds, nil
}

// checkEngineMatchesTape is the gate that the tape-free engine and the
// taped forward agree bit for bit on the evaluation set: two models are
// rebuilt from the same bytes, so both rate encoders start fresh.
func checkEngineMatchesTape(g *gates, raw []byte, x *tensorT) {
	eng, err := engineFromBytes(raw, serial)
	if err != nil {
		g.failf("engine from checkpoint: %v", err)
		return
	}
	model, _, err := modelFromBytes(raw)
	if err != nil {
		g.failf("model from checkpoint: %v", err)
		return
	}
	got, err := eng.Logits(x)
	if err != nil {
		g.failf("engine forward: %v", err)
		return
	}
	want := logitsOn(serial, model, x)
	gd, wd := got.Data(), want.Data()
	if len(gd) != len(wd) {
		g.failf("engine returned %d logits, the taped forward %d", len(gd), len(wd))
		return
	}
	for i := range gd {
		if gd[i] != wd[i] {
			g.failf("engine logit %d is %v, the taped forward's %v", i, gd[i], wd[i])
			return
		}
	}
}
