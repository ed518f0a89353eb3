// Package compute provides the execution backend underneath the tensor
// kernels: data-parallel loop execution and pooled scratch buffers.
//
// A Backend is the unit of kernel-level parallelism. Two implementations
// exist: Serial runs every kernel inline on the calling goroutine, and
// Parallel partitions kernels into contiguous blocks executed on a shared,
// process-wide worker pool. Both draw scratch buffers (padded input
// planes, gradient accumulators) from a size-bucketed sync.Pool so hot
// loops do not allocate per call.
//
// Determinism: backends only parallelise loops whose blocks write disjoint
// outputs and whose per-element accumulation order matches the serial
// kernel, so Serial and Parallel produce bit-identical results. This is
// asserted by the equivalence tests in internal/tensor.
//
// Composition: kernel-level parallelism composes with coarser parallelism
// (internal/explore runs one grid point per goroutine) without
// oversubscribing the machine. The hard bound is the shared worker pool:
// it holds exactly NumCPU workers, and a ParallelFor block whose
// submission finds no idle worker runs inline on the caller, so total
// kernel concurrency never exceeds NumCPU plus the calling goroutines.
// Backend width is the per-caller budgeting knob on top of that — budget
// widths so that coarse workers × backend width ≤ NumCPU. The width
// bound is advisory rather than exact under nesting (a kernel that calls
// ParallelFor from inside a parallel block can transiently draw more
// idle pool workers); fairness between callers comes from the shared
// pool, not from per-backend accounting.
package compute

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// Backend executes data-parallel kernels and pools scratch buffers.
type Backend interface {
	// Workers returns the maximum number of blocks a ParallelFor call may
	// execute concurrently (≥ 1). Callers use it to budget composition
	// with coarser-grained parallelism.
	Workers() int
	// ParallelFor partitions the index range [0, n) into at most
	// Workers() contiguous blocks and invokes fn(lo, hi) once per block,
	// possibly concurrently. grain is the minimum profitable block size:
	// for grain > 1, fewer than MinParallelGrains*grain iterations run
	// as a single inline block — below that much total work the
	// partition and hand-off overhead exceeds what fan-out recovers. A
	// grain ≤ 1 asserts that every single iteration is a dispatch-worthy
	// unit (e.g. one whole image of a conv batch) and bypasses the
	// inline threshold. The final block of a partition may still be
	// shorter than grain. fn must be safe to run concurrently on
	// disjoint ranges. ParallelFor returns only after every block has
	// completed.
	ParallelFor(n, grain int, fn func(lo, hi int))
	// Get returns a scratch buffer of length n from the pool. Its
	// contents are unspecified (recycled buffers are not zeroed); the
	// caller must fully initialize it before reading.
	Get(n int) []float64
	// Put returns a buffer obtained from Get to the pool. The caller must
	// not use the buffer afterwards.
	Put(buf []float64)
}

// ---------------------------------------------------------------------------
// Serial backend

// Serial executes every kernel inline on the calling goroutine. It is the
// reference implementation the Parallel backend is tested against, and the
// right choice when a coarser layer already saturates the machine.
type Serial struct{}

// NewSerial returns the serial backend.
func NewSerial() Serial { return Serial{} }

// Workers returns 1.
func (Serial) Workers() int { return 1 }

// ParallelFor runs fn(0, n) inline.
func (Serial) ParallelFor(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	fn(0, n)
}

// Get returns a pooled buffer with unspecified contents.
func (Serial) Get(n int) []float64 { return f64Pool.get(n) }

// Put recycles a buffer.
func (Serial) Put(buf []float64) { f64Pool.put(buf) }

// ---------------------------------------------------------------------------
// Parallel backend

// Parallel partitions kernels into blocks executed on the shared worker
// pool. The zero value is not usable; construct with NewParallel.
type Parallel struct {
	width int
}

// NewParallel returns a backend that runs up to width blocks of each
// kernel concurrently. A width ≤ 0 selects runtime.NumCPU(). A width of 1
// behaves like Serial.
func NewParallel(width int) *Parallel {
	if width <= 0 {
		width = runtime.NumCPU()
	}
	return &Parallel{width: width}
}

// Workers returns the backend's block width.
func (p *Parallel) Workers() int { return p.width }

// MinParallelGrains is the inline work threshold of the Parallel
// backend: a kernel must carry at least this many grains of work before
// ParallelFor fans out. One grain is sized (by the caller) at roughly
// the smallest profitable block, so two grains of work split across two
// workers would save at most one grain of wall-clock — about the same
// as the submit/wait hand-off costs. Requiring MinParallelGrains grains
// keeps such sub-threshold kernels inline, where the partition overhead
// is zero. Callers passing grain ≤ 1 bypass the threshold (each
// iteration is declared dispatch-worthy on its own).
const MinParallelGrains = 4

// ParallelFor partitions [0, n) into at most width blocks of at least
// grain iterations, runs all but one on the shared worker pool and the
// last inline, and waits for completion. Kernels below the
// MinParallelGrains work threshold run inline without partitioning.
// When the pool has no idle worker a block runs inline on the caller,
// so nested or heavily concurrent use degrades to serial execution
// instead of deadlocking or oversubscribing.
func (p *Parallel) ParallelFor(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain > 1 && n < MinParallelGrains*grain {
		fn(0, n)
		return
	}
	if grain < 1 {
		grain = 1
	}
	// Blocks of at least grain, at most width blocks, evenly sized.
	blocks := n / grain
	if blocks > p.width {
		blocks = p.width
	}
	if blocks <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + blocks - 1) / blocks
	// Panics inside blocks are captured and re-raised on the caller after
	// every block has finished: letting one unwind a pool goroutine would
	// kill the process, and letting the caller's own block unwind early
	// would hand control back while other blocks still write the output.
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicVal any
	run := func(lo, hi int) {
		defer func() {
			if r := recover(); r != nil {
				panicOnce.Do(func() { panicVal = r })
			}
		}()
		fn(lo, hi)
	}
	for lo := chunk; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		lo, hi := lo, hi
		wg.Add(1)
		task := func() {
			defer wg.Done()
			run(lo, hi)
		}
		if !submit(task) {
			task()
		}
	}
	run(0, chunk) // first block on the caller
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
}

// Get returns a pooled buffer with unspecified contents.
func (p *Parallel) Get(n int) []float64 { return f64Pool.get(n) }

// Put recycles a buffer.
func (p *Parallel) Put(buf []float64) { f64Pool.put(buf) }

// ---------------------------------------------------------------------------
// Shared worker pool

var (
	poolOnce sync.Once
	taskCh   chan func()
)

// submit hands task to an idle pool worker. It reports false — without
// running the task — when every worker is busy; the caller then runs the
// task inline. The channel is unbuffered on purpose: a send succeeds only
// if a worker is actively receiving, which is what makes nested
// ParallelFor calls deadlock-free (workers blocked in wg.Wait are not
// receiving, so their sub-blocks fall back to inline execution).
func submit(task func()) bool {
	poolOnce.Do(startPool)
	select {
	case taskCh <- task:
		return true
	default:
		return false
	}
}

// startPool launches the process-wide workers, one per CPU. The workers
// live for the life of the process; they are shared by every Parallel
// backend, which is what bounds total kernel-level concurrency to NumCPU
// regardless of how many backends exist.
func startPool() {
	taskCh = make(chan func())
	for i := 0; i < runtime.NumCPU(); i++ {
		go func() {
			for task := range taskCh {
				task()
			}
		}()
	}
}

// ---------------------------------------------------------------------------
// Default backend

var defaultBackend atomic.Pointer[Backend]

// Default returns the process-wide default backend: Parallel(NumCPU) on
// multi-core machines, Serial on single-core ones, unless overridden by
// SetDefault.
func Default() Backend {
	if p := defaultBackend.Load(); p != nil {
		return *p
	}
	return builtinDefault
}

// SetDefault overrides the process-wide default backend (nil restores the
// built-in choice). It is typically called once at start-up, e.g. by the
// CLI's -workers flag.
func SetDefault(be Backend) {
	if be == nil {
		defaultBackend.Store(nil)
		return
	}
	defaultBackend.Store(&be)
}

// New returns a backend of the given width: Serial for width 1, Parallel
// otherwise (width ≤ 0 selects NumCPU).
func New(width int) Backend {
	if width == 1 {
		return Serial{}
	}
	return NewParallel(width)
}

var builtinDefault = New(runtime.NumCPU())

// ---------------------------------------------------------------------------
// Buffer pools

// Buffers are pooled in power-of-two capacity buckets. Larger requests are
// allocated directly and dropped on Put, keeping worst-case retained
// memory bounded.
const maxBucket = 26 // 2^26 elements: 512 MiB of float64

// bucketPool is the one arena behind Backend.Get/Put and
// GetUint64/PutUint64. A sync.Pool stores pointers, so a pooled
// slice travels in a heap box holding its header; get hands the emptied
// box over to boxes, where the next put finds it, so a steady Get/Put
// cycle allocates nothing.
type bucketPool[T any] struct {
	buckets [maxBucket + 1]sync.Pool
	boxes   sync.Pool
}

func bucketFor(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1)) // ceil(log2(n))
}

// get returns a slice of length n with unspecified contents; the kernels
// that draw scratch buffers fully overwrite them, so zeroing here would
// be a wasted memory pass on every pooled hit.
func (p *bucketPool[T]) get(n int) []T {
	if n <= 0 {
		return nil
	}
	b := bucketFor(n)
	if b > maxBucket {
		return make([]T, n)
	}
	if v := p.buckets[b].Get(); v != nil {
		box := v.(*[]T)
		s := (*box)[:n]
		*box = nil
		p.boxes.Put(box)
		return s
	}
	return make([]T, n, 1<<b)
}

// put recycles a buffer for a later get. Buffers larger than the top
// bucket are dropped, honouring the retained-memory bound.
func (p *bucketPool[T]) put(s []T) {
	c := cap(s)
	if c == 0 || c > 1<<maxBucket {
		return
	}
	box, _ := p.boxes.Get().(*[]T)
	if box == nil {
		box = new([]T)
	}
	*box = s[:0]
	p.buckets[bits.Len(uint(c))-1].Put(box) // floor(log2(cap)): bucket whose size the cap covers
}

var (
	f64Pool bucketPool[float64]
	u64Pool bucketPool[uint64]
)

// GetUint64 returns a []uint64 of length n with unspecified contents —
// word scratch for bit-packed spike planes (pack/unpack buffers) and the
// convolution's a-row offsets; the caller must fully initialize it before
// reading. It is a package-level function rather than a Backend method
// so the Backend interface stays frozen; the pools are process-wide and
// safe for concurrent use.
func GetUint64(n int) []uint64 { return u64Pool.get(n) }

// PutUint64 recycles a buffer obtained from GetUint64. The caller must
// not use the buffer afterwards.
func PutUint64(s []uint64) { u64Pool.put(s) }

// PackSpikePlanes reports whether spike producers (the LIF step, the
// Poisson encoder) pack their outputs: always. The packed plane is what
// the pooling kernels read, and packing costs one pass over bits the
// producer already touches, so there is nothing to switch; the function
// stays because the benchmark's surface names it.
func PackSpikePlanes() bool { return true }
