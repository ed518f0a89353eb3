// Ownership tests: every buffer a tape touches is arena memory with a
// known point of return, so (1) nothing may read a tape value after that
// point — checked by recycling every buffer through NaN — and (2) a
// gradient step allocates almost nothing, and a forward on a reused
// frozen tape few objects — checked against budgets.
package snnsec

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"snnsec/internal/analysis"
	"snnsec/internal/attack"
	"snnsec/internal/compute"
	"snnsec/internal/core"
	"snnsec/internal/dataset"
	"snnsec/internal/serve"
	"snnsec/internal/snn"
	"snnsec/internal/tensor"
	"snnsec/internal/train"
)

// poisonBackend fills every buffer with NaN on its way out of the arena
// and on its way back: a kernel that reads an element of a Get it has not
// written, or anything that reads a tape value after Release or a
// gradient after its hand-over, computes NaN where the plain backend
// computes a number.
type poisonBackend struct{ compute.Serial }

func poison(buf []float64) {
	for i := range buf {
		buf[i] = math.NaN()
	}
}

func (p poisonBackend) Get(n int) []float64 {
	buf := p.Serial.Get(n)
	poison(buf)
	return buf
}

func (p poisonBackend) Put(buf []float64) {
	poison(buf)
	p.Serial.Put(buf)
}

func sameBits(a, b *tensor.Tensor) bool {
	return a.SameShape(b) && slices.EqualFunc(a.Data(), b.Data(), func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
}

// poisonFixture returns a fresh bench-topology SNN (fresh weights, fresh
// encoder stream) and a small labelled dataset.
func poisonFixture(t *testing.T) (*snn.Network, *dataset.Dataset) {
	t.Helper()
	net, err := core.NewSpikingLeNet5(core.DefaultLeNetConfig(8, 3), 0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	sc := dataset.DefaultSynthConfig(16, 5)
	sc.Size = 8
	ds, err := dataset.SynthDigits(sc)
	if err != nil {
		t.Fatal(err)
	}
	ds.Normalize()
	return net, ds
}

func TestPoisonedArenaChangesNothing(t *testing.T) {
	backends := []compute.Backend{compute.NewSerial(), poisonBackend{}}
	t.Cleanup(func() { compute.SetDefault(nil) })
	// run executes fn once per backend on a fresh fixture, with that
	// backend also the process default (analysis takes no backend).
	run := func(fn func(be compute.Backend, net *snn.Network, ds *dataset.Dataset) []*tensor.Tensor) (plain, poisoned []*tensor.Tensor) {
		var out [2][]*tensor.Tensor
		for i, be := range backends {
			compute.SetDefault(be)
			net, ds := poisonFixture(t)
			out[i] = fn(be, net, ds)
		}
		return out[0], out[1]
	}
	scalars := func(vs ...float64) *tensor.Tensor { return tensor.FromSlice(vs, len(vs)) }
	cases := []struct {
		name string
		fn   func(be compute.Backend, net *snn.Network, ds *dataset.Dataset) []*tensor.Tensor
	}{
		{"train.Fit, two batches", func(be compute.Backend, net *snn.Network, ds *dataset.Dataset) []*tensor.Tensor {
			res, err := train.Fit(net, ds, train.Config{Epochs: 1, BatchSize: 8, Backend: be, GradClip: 5})
			if err != nil {
				t.Fatal(err)
			}
			out := []*tensor.Tensor{scalars(res.FinalLoss, res.TrainAccuracy)}
			for _, p := range net.Params() {
				out = append(out, p.Data, p.Grad)
			}
			return out
		}},
		{"train.EvaluateOn and PredictOn", func(be compute.Backend, net *snn.Network, ds *dataset.Dataset) []*tensor.Tensor {
			preds := scalars(train.EvaluateOn(be, net, ds, 8))
			for _, p := range train.PredictOn(be, net, ds.Batches(16)[0].X) {
				preds = scalars(append(preds.Data(), float64(p))...)
			}
			return []*tensor.Tensor{preds}
		}},
		{"attack.PGD.Perturb", func(be compute.Backend, net *snn.Network, ds *dataset.Dataset) []*tensor.Tensor {
			b := ds.Batches(8)[0]
			pgd := attack.PGD{Eps: 1, Steps: 3, Bounds: attack.DatasetBounds(ds), Backend: be}
			return []*tensor.Tensor{pgd.Perturb(net, b.X, b.Y)}
		}},
		{"analysis.Activity", func(_ compute.Backend, net *snn.Network, ds *dataset.Dataset) []*tensor.Tensor {
			act := analysis.Activity(net, ds.Batches(8)[0].X)
			return []*tensor.Tensor{scalars(append(act.LayerRates, act.OutputRate)...)}
		}},
		{"serve.Engine logits", func(be compute.Backend, net *snn.Network, ds *dataset.Dataset) []*tensor.Tensor {
			eng, err := serve.NewEngine(net, be, []int{1, 8, 8})
			if err != nil {
				t.Fatal(err)
			}
			logits, err := eng.Logits(ds.Batches(8)[0].X)
			if err != nil {
				t.Fatal(err)
			}
			return []*tensor.Tensor{logits}
		}},
	}
	for _, c := range cases {
		plain, poisoned := run(c.fn)
		for i := range plain {
			if !sameBits(plain[i], poisoned[i]) {
				t.Errorf("%s: result %d differs on the poisoning backend", c.name, i)
			}
			if math.IsNaN(tensor.Sum(plain[i])) {
				t.Errorf("%s: result %d holds a NaN on the plain backend; the comparison is vacuous", c.name, i)
			}
		}
	}
}

// TestInputGradientAllocationBudget is the CI gate on the ownership
// rule: one PGD gradient step through the bench-scale SNN(1, 8) at the
// sweep's batch size allocated 14.7 MB when every op output and pullback
// product was a fresh tensor and allocates a quarter of a MB now that
// they are arena memory; an op that quietly goes back to tensor.New on
// the hot path moves it by hundreds of KB per timestep. The median of
// five steps rides out a garbage collection emptying the pools
// mid-measurement.
func TestInputGradientAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	const budget = 1 << 20
	s := core.BenchScale()
	net, err := core.NewSpikingLeNet5(s.Net, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.RandN(tensor.NewRand(19, 19), 0, 1, s.EvalBatch, 1, s.Net.ImageSize, s.Net.ImageSize)
	labels := make([]int, x.Dim(0))
	for i := range labels {
		labels[i] = i % core.NumClasses
	}
	be := compute.NewSerial()
	step := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		attack.InputGradientOn(be, net, x, labels)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	step()
	step() // two warm-up steps fill the arena
	perStep := []uint64{step(), step(), step(), step(), step()}
	slices.Sort(perStep)
	if median := perStep[len(perStep)/2]; median > budget {
		t.Errorf("one input-gradient step allocated %d bytes (median of %v), budget %d", median, perStep, budget)
	} else {
		t.Logf("one input-gradient step allocates %d bytes (median of %v), budget %d", median, perStep, budget)
	}
}

// TestForwardAllocationCountBudget is the CI gate on what a forward that
// records nothing costs in objects and in bytes: the serving engine and
// the streaming runner run the network's own step on a frozen tape they
// reuse, so after warm-up a forward allocates no nodes, no pullback
// closures, no boxed pool entries and one header per tensor. One batch-1
// Engine.Logits on the bench-scale SNN(1, 8) made 717 allocations
// through the mirrored tape-free forward this replaced and 1448 through
// the tape as it then was; one 8-plane StatefulRunner.Step made 660. Any
// of those four creeping back moves the count by a hundred or more. The
// count budgets are the counts measured when they were set (448 and 468)
// plus 15 %; the two calls have since dropped to 431 and 411.
//
// The byte budgets catch what the count cannot: a closure that captures
// a word more and moves up an allocation size class allocates the same
// number of objects, but more bytes on every call. They are the bytes
// measured when they were set (40,000 per Logits, 38,400 per Step, both
// deterministic) plus 1 %; the two calls have since dropped to 34,728
// and 33,512.
func TestForwardAllocationCountBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	s := core.BenchScale()
	net, err := core.NewSpikingLeNet5(s.Net, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	size := s.Net.ImageSize
	eng, err := serve.NewEngine(net, compute.NewSerial(), []int{1, size, size})
	if err != nil {
		t.Fatal(err)
	}
	runner, err := eng.NewStatefulRunner(compute.PackSpikePlanes())
	if err != nil {
		t.Fatal(err)
	}
	r := tensor.NewRand(23, 23)
	x := tensor.RandN(r, 0, 1, 1, 1, size, size)
	planes := make([]*tensor.SpikeTensor, 8)
	for i := range planes {
		plane := tensor.New(1, 1, size, size)
		for j := range plane.Data() {
			if r.Float64() < 0.2 {
				plane.Data()[j] = 1
			}
		}
		planes[i] = tensor.PackSpikesOn(nil, plane)
	}
	for _, c := range []struct {
		name               string
		budget, byteBudget uint64
		call               func() error
	}{
		{"batch-1 Engine.Logits", 515, 40400, func() error { _, err := eng.Logits(x); return err }},
		{"8-plane StatefulRunner.Step", 538, 38784, func() error { _, err := runner.Step(planes); return err }},
	} {
		measure := func() (count, bytes uint64) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := c.call(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
		}
		measure()
		measure() // two warm-up calls fill the arena and the node slab
		var counts, bytes []uint64
		for range 5 {
			n, b := measure()
			counts, bytes = append(counts, n), append(bytes, b)
		}
		slices.Sort(counts)
		slices.Sort(bytes)
		if median := counts[len(counts)/2]; median > c.budget {
			t.Errorf("%s made %d allocations (median of %v), budget %d", c.name, median, counts, c.budget)
		} else {
			t.Logf("%s makes %d allocations (median of %v), budget %d", c.name, median, counts, c.budget)
		}
		if median := bytes[len(bytes)/2]; median > c.byteBudget {
			t.Errorf("%s allocated %d B (median of %v), budget %d B", c.name, median, bytes, c.byteBudget)
		} else {
			t.Logf("%s allocates %d B (median of %v), budget %d B", c.name, median, bytes, c.byteBudget)
		}
	}
}
