// Package autodiff implements tape-based reverse-mode automatic
// differentiation over the dense tensors of internal/tensor.
//
// A Tape records every operation in creation order. Because a computation
// graph is always built sequentially, the reverse of the creation order is
// a valid topological order, so Backward simply walks the tape backwards,
// calling each node's pullback to accumulate gradients into its parents.
//
// Three kinds of nodes exist:
//
//   - constants (Const, Spikes): no gradient is tracked;
//   - leaves (Leaf / Var): inputs of the graph; their gradient buffer may
//     alias external storage so optimisers and attacks can read it;
//   - interior nodes: created by the operations in ops.go or by NewOp.
//
// Reverse mode is demand-driven: a node requires a gradient only when a
// leaf is upstream of it, a pullback computes only the products whose
// parent requires one, and an operation none of whose parents does
// (Tracks) returns a constant before it builds a pullback closure at
// all. What a tape differentiates with respect to is therefore decided
// by how its inputs are recorded — Var/Leaf or Const for data, and Param
// for model parameters, which a frozen tape (NewFrozenTapeOn) records as
// constants — never by a mode a caller sets: a frozen tape fed constants
// is a plain forward pass whose only per-operation cost is one node.
//
// Nodes live in a slab the tape keeps across Release/Reset, and so do the
// headers of the values they describe — the tensor headers of forward
// outputs, gradient products and reshaped views, the packed-plane headers
// and row counts of spike producers — so a tape that is reused (an
// inference engine's, a training loop's, an attack's) allocates no nodes
// and no headers after its first pass. A header lives exactly as long as
// the value it describes: Release zeroes it with its node.
//
// One ownership rule covers every buffer a tape touches: it lives in
// memory the tape's backend arena lends, is written once, and goes back
// at a known point. Forward outputs (Output) are tape-lived and go back
// on Release; a pullback writes each gradient product into arena memory
// (Product) and gives it to the parent (HandGrad), where it becomes the
// parent's gradient buffer or is added to it and recycled; an interior
// gradient goes back the moment its node's pullback has run. Only leaf
// gradients belong to the caller.
//
// The engine is deliberately single-threaded per tape; run independent
// tapes on separate goroutines for parallelism (internal/explore does
// this).
package autodiff

import (
	"fmt"

	"snnsec/internal/compute"
	"snnsec/internal/tensor"
)

// Tape records operations for reverse-mode differentiation. A tape is
// bound to a compute backend: every kernel recorded through it — forward
// and pullback — executes on that backend, which is how backend selection
// threads through nn, snn and train without touching their call sites.
type Tape struct {
	// nodes is the node slab, handed out in creation order — the order
	// Backward walks in reverse.
	nodes slab[Value]
	// tensors, planes and ints hold the headers and row counts of
	// tape-lived values: Output, Product, View and Reshape headers, the
	// packed planes of SpikeOutput and of reshaped spike values, and
	// their row counts.
	tensors slab[tensor.Tensor]
	planes  slab[tensor.SpikeTensor]
	ints    slab[int]
	be      compute.Backend
	// frozen makes Param record constants; see NewFrozenTapeOn.
	frozen bool
	// ownedBufs / ownedWords are pooled buffers backing the forward
	// outputs recorded on the tape (synapse currents, pooled planes,
	// spike and membrane slabs, packed bit forms). They are registered by
	// the producing operations via Output/OwnBuffer/OwnWords and returned
	// to the backend arena by Release once the tape's values are dead.
	ownedBufs  [][]float64
	ownedWords [][]uint64
}

// Value is a node in the computation graph: a tensor plus the bookkeeping
// needed to backpropagate through the operation that produced it.
type Value struct {
	// Data holds the forward result. It must not be mutated after the
	// node has been consumed by another operation.
	Data *tensor.Tensor
	// Grad accumulates dLoss/dData during Backward. It is nil for
	// constants and, until the first contribution arrives, for interior
	// nodes. Interior-node gradient buffers are arena memory — the first
	// product handed over, or a pooled buffer — and go back to the arena
	// as soon as Backward has run the node's pullback, so they must not
	// be read after Backward returns — read gradients through leaves
	// (Leaf/Var), whose buffers are caller-owned.
	Grad *tensor.Tensor

	requiresGrad bool
	// interior marks the output of an operation with a differentiable
	// parent: its gradient is arena memory that runBackward recycles.
	interior bool
	// back runs the node's pullback if a gradient reached it; nil for
	// constants, leaves and the first output of a two-output operation
	// (whose pullback hangs on the second).
	back func()
	tape *Tape
	// spikes is the bit-packed form of a binary 0/1 Data plane (spike
	// activations); nil for ordinary dense values. The pooling ops read
	// it in place of Data. A packed-only constant (Tape.Spikes) has
	// spikes and no Data.
	spikes *tensor.SpikeTensor
}

// A slab grows by doubling from firstChunk elements up to maxChunk per
// chunk: a short-lived tape (one CNN evaluation) pays for little more
// than what it records, a long one amortises.
const (
	firstChunk = 32
	maxChunk   = 256
)

// slab hands out zeroed elements in order from chunks that never move,
// so an element's address is stable, and keeps them for the next pass.
// The next element is chunks[cur][off].
type slab[T any] struct {
	chunks   [][]T
	cur, off int
}

// take hands out the next n elements as one section. A section that does
// not fit the rest of the current chunk starts the next chunk that holds
// it, and a chunk is added when none does.
func (s *slab[T]) take(n int) []T {
	for s.cur < len(s.chunks) && s.off+n > len(s.chunks[s.cur]) {
		s.cur, s.off = s.cur+1, 0
	}
	if s.cur == len(s.chunks) {
		s.chunks = append(s.chunks, make([]T, max(n, min(firstChunk<<s.cur, maxChunk))))
	}
	sec := s.chunks[s.cur][s.off : s.off+n : s.off+n]
	s.off += n
	return sec
}

// next hands out one element.
func (s *slab[T]) next() *T { return &s.take(1)[0] }

// reset zeroes every element handed out and rewinds, keeping the chunks.
func (s *slab[T]) reset() {
	for _, c := range s.chunks[:s.cur] {
		clear(c)
	}
	if s.cur < len(s.chunks) {
		clear(s.chunks[s.cur][:s.off])
	}
	s.cur, s.off = 0, 0
}

// newValue hands out the next node of the slab, zeroed but for its tape.
func (tp *Tape) newValue() *Value {
	v := tp.nodes.next()
	v.tape = tp
	return v
}

// header hands out a zeroed tensor header from the tape's slab.
func (tp *Tape) header() *tensor.Tensor { return tp.tensors.next() }

// NewTapeOn returns an empty tape bound to be; nil selects the default
// backend at execution time.
func NewTapeOn(be compute.Backend) *Tape { return &Tape{be: be} }

// NewFrozenTapeOn returns an empty tape bound to be on which model
// parameters (Param) are constants: gradients reach only what the
// caller records with Var or Leaf, and with nothing so recorded the
// tape is a plain forward pass that keeps nothing for a pullback. It is
// the tape of a white-box attack (∇ₓL alone) and of every evaluation
// forward; the victim's parameter gradients are neither computed nor
// written.
func NewFrozenTapeOn(be compute.Backend) *Tape { return &Tape{be: be, frozen: true} }

// Backend returns the backend the tape's operations execute on.
func (tp *Tape) Backend() compute.Backend {
	if tp.be == nil {
		return compute.Default()
	}
	return tp.be
}

// Reset discards all recorded nodes so the tape can be reused for the next
// forward pass: every node and header handed out is zeroed — no Data,
// Grad, pullback, spike plane, shape or row count survives into its next
// use — and the slabs are kept. Values recorded before Reset must not be
// used afterwards, nor any tensor or plane the tape handed out. Buffers
// registered with OwnBuffer/OwnWords are not returned; use Release for
// that as well.
func (tp *Tape) Reset() {
	tp.nodes.reset()
	tp.tensors.reset()
	tp.planes.reset()
	tp.ints.reset()
}

// Output returns a tape-lived tensor of the given shape for an
// operation to write its forward result into: memory the backend arena
// lends the tape until Release, under a header from the tape's slab. Its
// contents are unspecified (recycled buffers are dirty); the operation
// must write every element.
func (tp *Tape) Output(shape ...int) *tensor.Tensor {
	out := tp.Product(shape...)
	tp.OwnBuffer(out.Data())
	return out
}

// Product returns an arena tensor of the given shape for a pullback to
// write one gradient product into — every element, once — and give away
// with HandGrad. Its contents are unspecified; its header, like every
// header the tape hands out, is the tape's until Release.
func (tp *Tape) Product(shape ...int) *tensor.Tensor {
	n := 1
	for _, d := range shape {
		n *= max(d, 0) // a bad dimension is Init's to report
	}
	return tp.header().Init(tp.Backend().Get(n), shape...)
}

// View returns a tape-lived header of the given shape over data, which
// must be tape-lived itself — a section of a buffer registered with
// OwnBuffer — so that header and memory die together at Release.
func (tp *Tape) View(data []float64, shape ...int) *tensor.Tensor {
	return tp.header().Init(data, shape...)
}

// SpikeOutput returns a tape-lived packed plane of the given shape for a
// spike producer to fill, with the plane's own words and row counts: the
// packed counterpart of Output. The words are arena memory lent until
// Release and are dirty — the producer stores every one; the counts start
// at zero. The plane reads both, so they must hold the plane's bits and
// per-row popcounts before anything reads it.
func (tp *Tape) SpikeOutput(shape ...int) (plane *tensor.SpikeTensor, bits []uint64, counts []int) {
	rows, cols := shape[0], 1
	for _, d := range shape[1:] {
		cols *= d
	}
	bits = compute.GetUint64(rows * ((cols + 63) / 64))
	tp.OwnWords(bits)
	counts = tp.ints.take(rows)
	return tp.planes.next().Init(bits, counts, shape...), bits, counts
}

// OwnBuffer registers a pooled float64 buffer (obtained from the tape's
// backend) that backs forward data recorded on the tape. Release returns
// it to the backend pool. A buffer must be registered at most once, and
// must not be sub-sliced into separately-registered pieces.
func (tp *Tape) OwnBuffer(buf []float64) { tp.ownedBufs = append(tp.ownedBufs, buf) }

// OwnWords registers a pooled []uint64 buffer (a packed spike plane
// obtained from compute.GetUint64) for return to the word arena on
// Release.
func (tp *Tape) OwnWords(buf []uint64) { tp.ownedWords = append(tp.ownedWords, buf) }

// Release is the tape's end-of-life hook: it returns every registered
// forward buffer — the currents, pooled planes, spike and membrane slabs
// a T-step unrolled network records once per layer per timestep, down to
// the logits — to the backend arena and resets the tape. After Release
// no Value recorded on the tape may be used: their Data aliases recycled
// pool memory; copy out what must outlive the tape first. Call it after
// Backward (and after any forward output has been read), typically once
// per training batch, so long sweeps cycle through a working set of
// cache-warm buffers instead of holding T-step activations until the
// garbage collector runs.
func (tp *Tape) Release() {
	be := tp.Backend()
	for i, b := range tp.ownedBufs {
		be.Put(b)
		tp.ownedBufs[i] = nil
	}
	tp.ownedBufs = tp.ownedBufs[:0]
	for i, w := range tp.ownedWords {
		compute.PutUint64(w)
		tp.ownedWords[i] = nil
	}
	tp.ownedWords = tp.ownedWords[:0]
	tp.Reset()
}

// Const records t as a constant: no gradient flows into it.
func (tp *Tape) Const(t *tensor.Tensor) *Value {
	v := tp.newValue()
	v.Data = t
	return v
}

// Spikes records the binary plane sp as a packed-only constant: a value
// with no dense Data, whose shape and bits are read from the plane.
// Pools up to 64 wide read the bits; MatMul, Conv2D and wider pools
// unpack it into pooled scratch for each kernel call that reads it;
// ReLU and Reshape keep it packed. It is how event data reaches a
// network without a tape-lived dense input tensor; any other operation
// needs Const(sp.Dense()).
func (tp *Tape) Spikes(sp *tensor.SpikeTensor) *Value {
	v := tp.newValue()
	v.spikes = sp
	return v
}

// Zeros records an all-zero constant of the given shape in tape-lived
// arena memory — the initial state of a recurrence.
func (tp *Tape) Zeros(shape ...int) *Value {
	out := tp.Output(shape...)
	clear(out.Data())
	return tp.Const(out)
}

// Leaf records t as a differentiable leaf whose gradient accumulates into
// the provided buffer. grad must have t's shape; it is NOT zeroed here, so
// gradients accumulate across calls until the caller clears it (this is
// what lets an optimiser sum gradients over a batch of tapes).
func (tp *Tape) Leaf(t, grad *tensor.Tensor) *Value {
	if !t.SameShape(grad) {
		panic(fmt.Sprintf("autodiff: Leaf grad shape %v does not match data %v", grad.Shape(), t.Shape()))
	}
	v := tp.newValue()
	v.Data, v.Grad, v.requiresGrad = t, grad, true
	return v
}

// Param records a model parameter: a Leaf accumulating into grad on an
// ordinary tape, a constant on a frozen one.
func (tp *Tape) Param(t, grad *tensor.Tensor) *Value {
	if tp.frozen {
		return tp.Const(t)
	}
	return tp.Leaf(t, grad)
}

// Var records t as a differentiable leaf with a freshly zeroed gradient
// buffer. Use it for inputs under attack.
func (tp *Tape) Var(t *tensor.Tensor) *Value {
	return tp.Leaf(t, tensor.New(t.Shape()...))
}

// RequiresGrad reports whether gradients flow into v.
func (v *Value) RequiresGrad() bool { return v.requiresGrad }

// Shape returns the shape of the node's data.
func (v *Value) Shape() []int {
	if v.Data == nil {
		return v.spikes.Shape()
	}
	return v.Data.Shape()
}

// dense returns v's data as a dense tensor. A packed-only constant is
// unpacked into pooled scratch, and pooled reports that the caller hands
// it back with Backend().Put once the one kernel call reading it has
// returned.
func (v *Value) dense() (t *tensor.Tensor, pooled bool) {
	if v.Data != nil {
		return v.Data, false
	}
	return v.spikes.DenseInto(v.tape.Backend(), v.tape.Product(v.Shape()...)), true
}

// Spikes returns the bit-packed form of a binary spike value, or nil
// for ordinary dense values.
func (v *Value) Spikes() *tensor.SpikeTensor { return v.spikes }

// AttachSpikes binds the packed spike-plane form of v's data, letting
// downstream pools answer from popcounts. s must pack exactly the 0/1
// contents of v.Data (the popcount pools are bit-identical to the dense
// ones only under that contract); the producers that compute spikes —
// the LIF step, the Poisson encoder — attach the packed plane they built
// alongside the dense view.
func (v *Value) AttachSpikes(s *tensor.SpikeTensor) {
	if s.Len() != v.Data.Len() || s.Dim(0) != v.Data.Dim(0) {
		panic(fmt.Sprintf("autodiff: AttachSpikes shape %v does not match data %v", s.Shape(), v.Data.Shape()))
	}
	v.spikes = s
}

// AccumGrad adds g, which stays the caller's, into v's gradient. It is
// a no-op for nodes that do not require gradients, so a pullback whose
// product is free (the upstream gradient itself, a reshape) may call it
// unconditionally; one that must compute its product first checks
// RequiresGrad, skips the work, and gives the product away with HandGrad
// instead. The first contribution to an interior node is stored as 0 + g
// in one pass into a pooled buffer — the bits a zeroed accumulator would
// hold, so a −0 in g arrives as +0.
func (v *Value) AccumGrad(g *tensor.Tensor) {
	if !v.requiresGrad {
		return
	}
	if v.Grad != nil {
		tensor.AddIntoOn(v.tape.Backend(), v.Grad, g)
		return
	}
	v.checkGrad(g)
	src := g.Data()
	v.Grad = v.tape.each(v.tape.Product(g.Shape()...), func(i int) float64 { return 0 + src[i] })
}

// HandGrad gives v the gradient product g, which the calling pullback
// drew from Tape.Product and wrote exactly once; the caller must not
// touch g afterwards. The first contribution to an interior node becomes
// its gradient buffer without a copy; any other is added into the
// existing gradient and g goes back to the arena. Because a handed-over
// buffer stands in for an accumulator that started at zero, g must hold
// the bits 0 + x would: kernels that accumulate from a cleared buffer do
// by construction, kernels that assign must write 0 + x.
func (v *Value) HandGrad(g *tensor.Tensor) {
	if v.requiresGrad && v.Grad == nil {
		v.checkGrad(g)
		v.Grad = g
		return
	}
	be := v.tape.Backend()
	if v.requiresGrad {
		tensor.AddIntoOn(be, v.Grad, g)
	}
	be.Put(g.Data())
}

// checkGrad panics unless g has the shape of v's data.
func (v *Value) checkGrad(g *tensor.Tensor) {
	if !g.SameShape(v.Data) {
		panic(fmt.Sprintf("autodiff: gradient shape %v does not match data %v", g.Shape(), v.Data.Shape()))
	}
}

// elemGrain is the minimum elements per block for the memory-bound
// elementwise loops of the forward operations and pullbacks.
const elemGrain = 4096

// Tracks reports whether a gradient flows into any of parents, which must
// all be recorded on tp (nil entries are skipped). It is the one rule by
// which an operation decides, from its parents alone and before it builds
// a pullback closure or retains anything for one, between recording
// itself (NewOp) and returning a plain constant (Const).
func (tp *Tape) Tracks(parents ...*Value) bool {
	req := false
	for _, p := range parents {
		if p == nil {
			continue
		}
		if p.tape != tp {
			panic("autodiff: operation mixes values from different tapes")
		}
		if p.requiresGrad {
			req = true
		}
	}
	return req
}

// NewOp records a custom operation producing out from parents, with back
// as its pullback. back receives the output gradient, which it may read
// but not keep or hand on, and must give each parent it differentiates
// into its product — HandGrad for one it computed, AccumGrad for one it
// borrows — computing a product only when that parent RequiresGrad. The
// returned node requires gradients iff any parent does; when none does,
// back is dropped and the node degenerates to a constant — an operation
// that tests Tracks up front and returns Const(out) itself also saves
// the closure and whatever it would retain only for back.
func (tp *Tape) NewOp(out *tensor.Tensor, back func(gout *tensor.Tensor), parents ...*Value) *Value {
	v := tp.Const(out)
	if tp.Tracks(parents...) {
		v.requiresGrad, v.interior = true, true
		v.back = func() {
			if v.Grad != nil {
				back(v.Grad)
			}
		}
	}
	return v
}

// NewOp2 records an operation with two outputs — a neuron step's spikes
// and membrane — and one pullback. Both outputs precede every consumer
// of either on the tape, so by the time the reverse walk reaches the
// second output all gradient either will ever receive has arrived: back
// runs there, once, with gA or gB nil when nothing differentiable read
// that output, and not at all when neither gradient arrived. The rules of
// NewOp's pullback apply.
func (tp *Tape) NewOp2(outA, outB *tensor.Tensor, back func(gA, gB *tensor.Tensor), parents ...*Value) (*Value, *Value) {
	a, b := tp.Const(outA), tp.Const(outB)
	if tp.Tracks(parents...) {
		a.requiresGrad, a.interior = true, true
		b.requiresGrad, b.interior = true, true
		b.back = func() {
			if a.Grad != nil || b.Grad != nil {
				back(a.Grad, b.Grad)
			}
		}
	}
	return a, b
}

// Backward runs reverse-mode differentiation from root, which must be a
// one-element tensor (a scalar loss). Gradients accumulate into every
// reachable leaf's buffer.
func (tp *Tape) Backward(root *Value) {
	if root.Data.Len() != 1 {
		panic(fmt.Sprintf("autodiff: Backward root must be scalar, has shape %v", root.Data.Shape()))
	}
	tp.BackwardWithSeed(root, tensor.Ones(root.Data.Shape()...))
}

// BackwardWithSeed runs reverse-mode differentiation seeding root's
// gradient with seed instead of 1. root may have any shape; seed must
// match it. This computes vector-Jacobian products.
func (tp *Tape) BackwardWithSeed(root *Value, seed *tensor.Tensor) {
	if root.tape != tp {
		panic("autodiff: Backward on value from a different tape")
	}
	if !root.Data.SameShape(seed) {
		panic(fmt.Sprintf("autodiff: seed shape %v does not match root %v", seed.Shape(), root.Data.Shape()))
	}
	if !root.requiresGrad {
		return // nothing differentiable upstream
	}
	root.AccumGrad(seed)
	tp.runBackward()
}

// runBackward walks the tape in reverse, running each pullback, and
// returns every interior gradient buffer to the backend arena the moment
// its node's pullback has consumed it: parents always precede their
// children on the tape, so once node i's pullback has run, no later step
// reads its gradient. (The first output of a two-output operation is
// read by the pullback on the second, which the walk reaches earlier.)
// This is the workspace arena of the BPTT loop — peak gradient memory is
// the live frontier of the graph, not the whole unrolled tape, and the
// recycled buffers stay cache-warm across timesteps.
func (tp *Tape) runBackward() {
	be := tp.Backend()
	nodes := &tp.nodes
	for ci := min(nodes.cur, len(nodes.chunks)-1); ci >= 0; ci-- {
		c := nodes.chunks[ci]
		if ci == nodes.cur {
			c = c[:nodes.off]
		}
		for i := len(c) - 1; i >= 0; i-- {
			n := &c[i]
			if n.back != nil {
				n.back()
			}
			if n.interior && n.Grad != nil {
				be.Put(n.Grad.Data())
				n.Grad = nil
			}
		}
	}
}
