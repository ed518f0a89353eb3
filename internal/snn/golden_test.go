package snn

import (
	"fmt"
	"math"
	"testing"

	"snnsec/internal/autodiff"
	"snnsec/internal/compute"
	"snnsec/internal/nn"
	"snnsec/internal/tensor"
)

// Identity to the parent commit, not only to itself: the digests below
// were recorded at commit c46a05c (before pullback products were handed
// over and before the LIF step became one node) over the fixtures of
// demand_test.go plus two pooled LeNet-shaped ones, and every later
// change to the tape's plumbing must reproduce them bit for bit on both
// backend widths — on a new tape, and on
// one tape per backend that every model of every fixture is recorded on
// in turn, each graph on the nodes the different graph before it
// released.

// gradDigest is FNV-1a over the IEEE bits of ∇ₓL and every ∇W, each
// tensor preceded by its length.
func gradDigest(ts ...*tensor.Tensor) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= 1099511628211
		}
	}
	for _, t := range ts {
		mix(uint64(t.Len()))
		for _, v := range t.Data() {
			mix(math.Float64bits(v))
		}
	}
	return h
}

// pooledFixture is the paper's topology in miniature — conv → pool →
// conv → pool → linear → readout — spiking and not, so the pooling
// kernels and the convolution input gradient are under the digests too.
func pooledFixture() (x *tensor.Tensor, labels []int, models []demandModel) {
	x = tensor.RandU(tensor.NewRand(300, 3), 0, 1, 5, 1, 8, 8)
	labels = []int{0, 1, 2, 0, 1}
	models = []demandModel{
		{"pooled-cnn", func() nn.Classifier {
			rr := tensor.NewRand(301, 5)
			return nn.NewSequential(
				nn.NewConv2D(rr, 1, 3, 5, 1, 2), nn.ReLU{}, nn.AvgPool{K: 2},
				nn.NewConv2D(rr, 3, 4, 3, 1, 1), nn.ReLU{}, nn.AvgPool{K: 2},
				nn.Flatten{}, nn.NewLinear(rr, 16, 6), nn.ReLU{}, nn.NewLinear(rr, 6, demandClasses))
		}},
		{"pooled-snn", func() nn.Classifier {
			rr := tensor.NewRand(301, 5)
			cfg := NeuronConfig{Vth: 0.5, Alpha: 0.9, Surrogate: FastSigmoid{Beta: 10}}
			return &Network{
				Encoder: NewNormalizedPoissonEncoder(1, 0, 1, 7, 9),
				Hidden: []Layer{
					{Syn: nn.NewConv2D(rr, 1, 3, 5, 1, 2), Cfg: cfg},
					{Syn: nn.NewSequential(nn.AvgPool{K: 2}, nn.NewConv2D(rr, 3, 4, 3, 1, 1)), Cfg: cfg},
					{Syn: nn.NewSequential(nn.AvgPool{K: 2}, nn.Flatten{}, nn.NewLinear(rr, 16, 6)), Cfg: cfg},
				},
				Readout:    nn.NewLinear(rr, 6, demandClasses),
				ReadoutCfg: cfg,
				T:          4,
				LogitScale: 10,
			}
		}},
	}
	return x, labels, models
}

var goldenGradDigests = map[string]uint64{
	"geometry 0 cnn": 0x49f04c94962ea679,
	"geometry 0 lif": 0x8dd7c6f919cfe845,
	"geometry 1 cnn": 0x5070e2716aeadef5,
	"geometry 1 lif": 0xac71d2b90e240055,
	"geometry 2 cnn": 0x60114a1e37ffc6b9,
	"geometry 2 lif": 0x48f960d5d2fd0c27,
	"geometry 3 cnn": 0xdbd393d6e2d02190,
	"geometry 3 lif": 0x135e90c9d0f6e535,
	"pooled-cnn":     0x40483d3bba611727,
	"pooled-snn":     0x75d851f3eaca53bf,
}

func TestGradientsMatchParentCommit(t *testing.T) {
	backends := []compute.Backend{compute.NewSerial(), compute.NewParallel(2)}
	reused := []*autodiff.Tape{autodiff.NewTapeOn(backends[0]), autodiff.NewTapeOn(backends[1])}
	check := func(prefix string, x *tensor.Tensor, labels []int, models []demandModel) {
		for _, m := range models {
			key := prefix + m.name
			want, ok := goldenGradDigests[key]
			if !ok {
				t.Errorf("no digest recorded for %q", key)
			}
			for bi, be := range backends {
				for ti, tp := range []*autodiff.Tape{autodiff.NewTapeOn(be), reused[bi]} {
					_, dx, dparams := demandRunOn(tp, m.build(), x, labels, true)
					if got := gradDigest(append([]*tensor.Tensor{dx}, dparams...)...); got != want {
						t.Errorf("%q width %d, %s tape: digest %#016x, recorded on the parent %#016x", key, be.Workers(), []string{"new", "reused"}[ti], got, want)
					}
				}
			}
		}
	}
	for gi := range demandGeometries {
		x, labels, models := demandFixture(gi)
		check(fmt.Sprintf("geometry %d ", gi), x, labels, models)
	}
	x, labels, models := pooledFixture()
	check("", x, labels, models)
}

// freshBackend never recycles: every Get is newly made, zeroed memory
// and every Put is dropped — the regime of a tape nobody releases.
type freshBackend struct{ compute.Serial }

func (freshBackend) Get(n int) []float64 { return make([]float64, n) }
func (freshBackend) Put([]float64)       {}

// Three consecutive batches whose tapes are released, so each runs on
// the arena memory the one before gave back (dirty, and handed out in a
// different role), must equal the same three batches on memory nobody
// has ever written.
func TestReleasedArenaReuseBitIdentical(t *testing.T) {
	x, labels, models := pooledFixture()
	half, shifted := x.Clone(), x.Clone()
	for i, v := range x.Data() {
		half.Data()[i], shifted.Data()[i] = v*0.5, v+0.25
	}
	batches := []*tensor.Tensor{x, half, shifted}
	for _, m := range models {
		recycled, fresh := m.build(), m.build()
		for bi, xb := range batches {
			for _, model := range []nn.Classifier{recycled, fresh} {
				for _, p := range model.Params() {
					p.ZeroGrad()
				}
			}
			rl, rdx, rparams := demandRun(recycled, compute.NewSerial(), xb, labels, false, true)
			fl, fdx, fparams := demandRun(fresh, freshBackend{}, xb, labels, false, true)
			if !sameBits(rl, fl) || !sameBits(rdx, fdx) {
				t.Errorf("%s batch %d: logits or input gradient differ on recycled arena memory", m.name, bi)
			}
			for i := range rparams {
				if !sameBits(rparams[i], fparams[i]) {
					t.Errorf("%s batch %d: parameter gradient %d differs on recycled arena memory", m.name, bi, i)
				}
			}
		}
	}
}
