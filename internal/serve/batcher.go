package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"snnsec/internal/faultinject"
	"snnsec/internal/tensor"
)

// FaultServeForward is the fault point wrapping every dispatched forward
// pass; it supports delay (a slow model), error and panic (a poisoned
// request taking down the dispatcher — the bug safeLogits contains).
const FaultServeForward = "serve.forward"

// call is one enqueued predict request. done is buffered (cap 1) and the
// dispatcher is its only sender, so delivering a result never blocks
// even when the requester has already given up; cancelled lets the
// requester withdraw (deadline fired, client disconnected) without any
// handshake — the dispatcher just skips the call when it gets there.
type call struct {
	runner    Runner
	x         *tensor.Tensor // [n, sample...]
	n         int
	deadline  time.Time
	cancelled atomic.Bool
	done      chan callResult
	// trace is non-nil only when the server was built with a TraceWriter;
	// the dispatcher stamps it before delivering on done.
	trace *traceTimes
}

type callResult struct {
	logits *tensor.Tensor // [n, classes]
	err    error
}

func (c *call) finish(res callResult) {
	select {
	case c.done <- res:
	default:
	}
}

// batcher owns the bounded request queue and the single dispatch
// goroutine that coalesces compatible requests into one forward pass.
// One goroutine is deliberate: the engine serialises forwards anyway
// (kernel parallelism comes from the compute backend, batch parallelism
// from coalescing), so more dispatchers would only add contention.
type batcher struct {
	maxBatch  int
	batchWait time.Duration
	depth     int

	mu       sync.Mutex
	queue    []*call
	arrive   chan struct{} // best-effort arrival signal, cap 1
	stop     chan struct{}
	donec    chan struct{}
	stopOnce sync.Once
	// abandoned latches when a drain timed out: the dispatcher may be
	// wedged in a forward pass, so close must not wait for it.
	abandoned atomic.Bool
	// ewmaNS tracks the smoothed per-forward service time (nanoseconds);
	// the dispatcher writes it, retryAfter reads it.
	ewmaNS atomic.Int64
	// alone latches when a wait ran out with the batch's first call still
	// alone, and clears when a batch holds two or more calls. While it is
	// set an open batch takes what is already queued and goes without
	// waiting. Only the dispatcher goroutine touches it.
	alone bool
}

func newBatcher(maxBatch int, batchWait time.Duration, depth int) *batcher {
	b := &batcher{
		maxBatch:  maxBatch,
		batchWait: batchWait,
		depth:     depth,
		arrive:    make(chan struct{}, 1),
		stop:      make(chan struct{}),
		donec:     make(chan struct{}),
	}
	go b.loop()
	return b
}

// enqueue admits a call or reports overload when the bounded queue is
// full — the backpressure the transports translate into 429.
func (b *batcher) enqueue(c *call) error {
	b.mu.Lock()
	if len(b.queue) >= b.depth {
		b.mu.Unlock()
		metricRejected.Inc()
		return ErrOverloaded
	}
	b.queue = append(b.queue, c)
	metricQueueDepth.Set(float64(len(b.queue)))
	b.mu.Unlock()
	select {
	case b.arrive <- struct{}{}:
	default:
	}
	return nil
}

// close stops the dispatcher — the loop drains what is already queued
// before exiting — and fails any straggler enqueued during shutdown with
// ErrClosed. Idempotent. After a timed-out drain (abandoned), close does
// not wait for the possibly-wedged dispatcher.
func (b *batcher) close() {
	b.stopOnce.Do(func() { close(b.stop) })
	if !b.abandoned.Load() {
		<-b.donec
	}
	b.mu.Lock()
	q := b.queue
	b.queue = nil
	b.mu.Unlock()
	for _, c := range q {
		c.finish(callResult{err: ErrClosed})
	}
}

// drainAndClose stops the dispatcher after it has answered everything
// already queued, bounded by timeout. On timeout the remaining calls
// fail with ErrClosed and an error is returned — the caller's signal
// that accepted work was dropped.
func (b *batcher) drainAndClose(timeout time.Duration) error {
	b.stopOnce.Do(func() { close(b.stop) })
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-b.donec:
		b.close()
		return nil
	case <-timer.C:
		b.abandoned.Store(true)
		b.close()
		return fmt.Errorf("serve: drain did not finish within %v", timeout)
	}
}

// queueLen reports the current queue depth — the live value /healthz
// exposes (metrics only sample it when collection is armed).
func (b *batcher) queueLen() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.queue)
}

// retryAfter estimates, in whole seconds (≥1, capped at 60), how long a
// rejected client should wait before retrying: the forwards the backlog
// needs — ⌈queued samples / MaxBatch⌉, plus the one in flight — times
// the smoothed per-forward service time.
func (b *batcher) retryAfter() int {
	b.mu.Lock()
	samples := 0
	for _, c := range b.queue {
		samples += c.n
	}
	b.mu.Unlock()
	per := time.Duration(b.ewmaNS.Load())
	if per <= 0 {
		return 1
	}
	forwards := (samples+b.maxBatch-1)/b.maxBatch + 1
	secs := int((time.Duration(forwards)*per + time.Second - 1) / time.Second)
	return min(max(secs, 1), 60)
}

func (b *batcher) loop() {
	defer close(b.donec)
	for {
		first := b.next()
		if first == nil {
			return
		}
		b.runBatch(b.coalesce(first))
	}
}

// next pops the first live call, expiring dead ones on the way, or
// blocks until an arrival (nil once stopped).
func (b *batcher) next() *call {
	for {
		b.mu.Lock()
		var c *call
		for len(b.queue) > 0 {
			head := b.queue[0]
			b.queue = b.queue[1:]
			if head.cancelled.Load() {
				continue
			}
			if !head.deadline.IsZero() && time.Now().After(head.deadline) {
				metricDeadlineWithdrawals.Inc()
				head.finish(callResult{err: ErrDeadline})
				continue
			}
			c = head
			break
		}
		metricQueueDepth.Set(float64(len(b.queue)))
		b.mu.Unlock()
		if c != nil {
			return c
		}
		select {
		case <-b.arrive:
		case <-b.stop:
			return nil
		}
	}
}

// coalesce grows a batch around first: it takes same-model calls off the
// queue front (never jumping over a different model's request, so FIFO
// order holds across models) until the batch is full, then waits up to
// BatchWait for more — but only while waiting finds co-travellers. A
// wait that runs out with first still alone sets alone, and until a
// batch holds two or more calls no batch waits: a lone caller, or a
// transport that sends one request at a time, never has a co-traveller
// to wait for, while under load calls queue during every forward and
// the next batch finds them. A negative BatchWait never waits.
func (b *batcher) coalesce(first *call) []*call {
	batch := []*call{first}
	n := first.n
	if b.maxBatch <= n {
		return batch
	}
	var timeout <-chan time.Time
	for {
		b.mu.Lock()
		for len(b.queue) > 0 && n < b.maxBatch {
			c := b.queue[0]
			if c.runner != first.runner || n+c.n > b.maxBatch {
				break
			}
			b.queue = b.queue[1:]
			if c.cancelled.Load() {
				continue
			}
			batch = append(batch, c)
			n += c.n
		}
		metricQueueDepth.Set(float64(len(b.queue)))
		b.mu.Unlock()
		if len(batch) > 1 {
			b.alone = false
		}
		if n >= b.maxBatch || b.batchWait <= 0 || b.alone {
			return batch
		}
		if timeout == nil {
			timer := time.NewTimer(b.batchWait)
			defer timer.Stop()
			timeout = timer.C
		}
		select {
		case <-b.arrive:
		case <-timeout:
			b.alone = len(batch) == 1
			return batch
		case <-b.stop:
			return batch
		}
	}
}

// runBatch drops dead calls, runs one forward over the survivors'
// concatenated inputs, and splits the logits back per call. Every kernel
// computes a sample's outputs from that sample's inputs alone, so for the
// CNN and for replayed or binned spike trains per-sample logits are
// batch-composition invariant and coalescing never changes what a
// request gets back. A Poisson-encoded SNN is the exception: its encoder
// is one generator every forward advances, so its replies depend on the
// calls before them, on their rows and on their batch mates.
func (b *batcher) runBatch(batch []*call) {
	now := time.Now()
	live := batch[:0]
	for _, c := range batch {
		if c.cancelled.Load() {
			continue
		}
		if !c.deadline.IsZero() && now.After(c.deadline) {
			metricDeadlineWithdrawals.Inc()
			c.finish(callResult{err: ErrDeadline})
			continue
		}
		live = append(live, c)
	}
	if len(live) == 0 {
		return
	}
	batchN := 0
	for _, c := range live {
		batchN += c.n
	}
	metricBatchSize.Observe(float64(batchN))
	metricCoalescedCalls.Observe(float64(len(live)))
	for _, c := range live {
		if c.trace != nil {
			c.trace.dequeued = now
			c.trace.batchN = batchN
			c.trace.batchCalls = len(live)
		}
	}
	x := live[0].x
	if len(live) > 1 {
		sample := live[0].x.Shape()[1:]
		total := 0
		for _, c := range live {
			total += c.n
		}
		x = tensor.New(append([]int{total}, sample...)...)
		xd := x.Data()
		off := 0
		for _, c := range live {
			copy(xd[off:], c.x.Data())
			off += c.x.Len()
		}
	}
	fwdStart := time.Now()
	logits, err := b.forward(live[0].runner, x)
	if fwdNS := time.Since(fwdStart).Nanoseconds(); live[0].trace != nil {
		for _, c := range live {
			c.trace.forwardNS = fwdNS
		}
	}
	if err != nil {
		if len(live) == 1 {
			live[0].finish(callResult{err: err})
			return
		}
		// One poisoned request must not fail its co-travellers: rerun
		// each call alone so only the culprit sees the error. The panic
		// is already converted to an error by safeLogits, so the
		// dispatcher itself survives either way.
		for _, c := range live {
			lg, cerr := b.forward(c.runner, c.x)
			if cerr != nil {
				c.finish(callResult{err: cerr})
				continue
			}
			c.finish(callResult{logits: lg})
		}
		return
	}
	classes := logits.Dim(1)
	ld := logits.Data()
	off := 0
	for _, c := range live {
		part := make([]float64, c.n*classes)
		copy(part, ld[off:off+len(part)])
		off += len(part)
		c.finish(callResult{logits: tensor.FromSlice(part, c.n, classes)})
	}
}

// forward runs one panic-isolated forward pass and folds its service
// time into the retry-after estimate.
func (b *batcher) forward(r Runner, x *tensor.Tensor) (*tensor.Tensor, error) {
	start := time.Now()
	lg, err := safeLogits(r, x)
	sample := time.Since(start).Nanoseconds()
	metricForwardSeconds.Observe(float64(sample) / 1e9)
	if err == nil {
		if old := b.ewmaNS.Load(); old == 0 {
			b.ewmaNS.Store(sample)
		} else {
			b.ewmaNS.Store(old - old/8 + sample/8)
		}
	}
	return lg, err
}

// safeLogits converts a panicking runner into an error return. The
// Runner contract says Logits must not panic, but the dispatcher is
// shared by every request in the process — one poisoned request must
// poison at most itself, never the runner loop. The serve.forward fault
// point fires here, wrapping exactly what production wraps.
func safeLogits(r Runner, x *tensor.Tensor) (logits *tensor.Tensor, err error) {
	defer func() {
		if p := recover(); p != nil {
			metricForwardPanics.Inc()
			err = fmt.Errorf("serve: forward pass panicked: %v", p)
		}
	}()
	if err := faultinject.Apply(FaultServeForward); err != nil {
		return nil, err
	}
	return r.Logits(x)
}
