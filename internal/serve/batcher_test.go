package serve

// Tests of the batcher's waiting rule — an open batch waits for
// co-travellers only while waiting finds them — and of its Retry-After
// estimate.

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"snnsec/internal/tensor"
)

// sizeRunner is a fakeRunner that records each forward's batch size and,
// while hold is non-nil, signals held and blocks the forward until hold
// is closed.
type sizeRunner struct {
	fakeRunner
	mu    sync.Mutex
	sizes []int
	hold  chan struct{}
	held  chan struct{}
}

func (r *sizeRunner) Logits(x *tensor.Tensor) (*tensor.Tensor, error) {
	r.mu.Lock()
	r.sizes = append(r.sizes, x.Dim(0))
	hold := r.hold
	r.mu.Unlock()
	if hold != nil {
		r.held <- struct{}{}
		<-hold
	}
	return r.fakeRunner.Logits(x)
}

// batchSizes returns the sizes of the forwards run so far.
func (r *sizeRunner) batchSizes() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]int(nil), r.sizes...)
}

func newSizeServer(t *testing.T, cfg Config) (*Server, *sizeRunner) {
	t.Helper()
	r := &sizeRunner{fakeRunner: fakeRunner{sample: []int{4}, classes: 3}}
	s, err := NewServer(cfg, &Model{Fingerprint: "default", Runner: r}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, r
}

// timedPredict sends one one-sample request and returns how long it took.
func timedPredict(t *testing.T, s *Server, v float64) time.Duration {
	t.Helper()
	start := time.Now()
	if _, err := s.Predict(context.Background(), &PredictRequest{Inputs: [][]float64{{v, 1, 2, 3}}}); err != nil {
		t.Fatalf("predict: %v", err)
	}
	return time.Since(start)
}

// concurrentPredicts starts n one-sample requests at once and returns a
// function that waits for them and reports the first error.
func concurrentPredicts(s *Server, n int) func() error {
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := s.Predict(context.Background(), &PredictRequest{Inputs: [][]float64{{float64(i), 1, 2, 3}}})
			errs <- err
		}(i)
	}
	return func() error {
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
}

// TestFirstBatchWaitsForCoTravellers: a fresh server's first batch waits,
// so concurrent callers ride one forward.
func TestFirstBatchWaitsForCoTravellers(t *testing.T) {
	s, r := newSizeServer(t, Config{MaxBatch: 4, BatchWait: time.Minute, QueueDepth: 16})
	if err := concurrentPredicts(s, 4)(); err != nil {
		t.Fatal(err)
	}
	if got := r.batchSizes(); len(got) != 1 || got[0] != 4 {
		t.Errorf("forward batch sizes %v, want [4]: the first batch must wait for its co-travellers", got)
	}
}

// TestLoneCallerStopsWaiting: once a wait has run out with the batch
// still one call, a sequential caller's requests go without waiting.
func TestLoneCallerStopsWaiting(t *testing.T) {
	const wait = 500 * time.Millisecond
	s, r := newSizeServer(t, Config{BatchWait: wait, QueueDepth: 16})
	if d := timedPredict(t, s, 0); d < wait {
		t.Errorf("request 1 took %v, want at least BatchWait %v (a fresh server's first batch waits)", d, wait)
	}
	for i := 2; i <= 5; i++ {
		if d := timedPredict(t, s, float64(i)); d >= wait/5 {
			t.Errorf("request %d took %v, want well under BatchWait %v", i, d, wait)
		}
	}
	for _, n := range r.batchSizes() {
		if n != 1 {
			t.Errorf("forward batch sizes %v, want all 1", r.batchSizes())
			break
		}
	}
}

// TestWaitingResumesWhenCallersQueue: after a lone phase, a batch that
// finds a second call queued waits again, so callers that arrive during
// its wait ride the same forward.
func TestWaitingResumesWhenCallersQueue(t *testing.T) {
	const wait = 500 * time.Millisecond
	s, r := newSizeServer(t, Config{MaxBatch: 8, BatchWait: wait, QueueDepth: 16})
	timedPredict(t, s, 0) // the wait runs out alone
	if d := timedPredict(t, s, 1); d >= wait/5 {
		t.Fatalf("lone request took %v, want well under BatchWait %v", d, wait)
	}

	// Hold one forward; four callers queue behind it.
	hold := make(chan struct{})
	r.mu.Lock()
	r.hold, r.held = hold, make(chan struct{}, 1)
	r.mu.Unlock()
	blocker := concurrentPredicts(s, 1)
	<-r.held
	r.mu.Lock()
	r.hold = nil
	before := len(r.sizes)
	r.mu.Unlock()
	queued := concurrentPredicts(s, 4)
	waitQueueLen(t, s, 4)
	// Release it: the next batch takes the four queued calls, so it
	// waits, and four more callers arrive while it does.
	close(hold)
	waitQueueLen(t, s, 0)
	late := concurrentPredicts(s, 4)
	for _, done := range []func() error{blocker, queued, late} {
		if err := done(); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.batchSizes()[before:]; len(got) != 1 || got[0] != 8 {
		t.Errorf("the 8 callers rode forwards of sizes %v, want one forward of 8", got)
	}
}

// waitQueueLen polls until the server's queue holds n calls.
func waitQueueLen(t *testing.T, s *Server, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); s.b.queueLen() != n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("queue length %d, want %d", s.b.queueLen(), n)
		}
	}
}

// TestServeLinesPaysOneBatchWait: the line transport sends one request
// at a time, so only its first line waits.
func TestServeLinesPaysOneBatchWait(t *testing.T) {
	const wait = 300 * time.Millisecond
	const lines = 5
	s, _ := newSizeServer(t, Config{BatchWait: wait})
	in := strings.Repeat(`{"inputs":[[1,2,3,4]]}`+"\n", lines)
	var out strings.Builder
	start := time.Now()
	if err := s.ServeLinesContext(context.Background(), strings.NewReader(in), &out); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d >= 2*wait {
		t.Errorf("%d lines took %v, want about one BatchWait (%v)", lines, d, wait)
	}
	if got := strings.Count(out.String(), `"preds"`); got != lines {
		t.Errorf("%d predictions for %d lines:\n%s", got, lines, out.String())
	}
}

// TestNegativeBatchWaitNeverWaits: a negative BatchWait dispatches every
// batch as soon as it opens, a fresh server's first one included.
func TestNegativeBatchWaitNeverWaits(t *testing.T) {
	s, r := newSizeServer(t, Config{BatchWait: -time.Minute, DefaultDeadline: time.Minute})
	start := time.Now()
	for i := 0; i < 3; i++ {
		timedPredict(t, s, float64(i))
	}
	if d := time.Since(start); d >= time.Second {
		t.Errorf("3 requests took %v with a negative BatchWait, want no wait at all", d)
	}
	if got := r.batchSizes(); len(got) != 3 {
		t.Errorf("forward batch sizes %v, want three forwards of one", got)
	}
}

// TestRetryAfterCountsForwards: the estimate is the forwards the backlog
// needs, MaxBatch samples at a time, not one forward per queued call.
func TestRetryAfterCountsForwards(t *testing.T) {
	for _, tc := range []struct {
		name    string
		calls   int
		samples int // per call
		per     time.Duration
		want    int
	}{
		{"no estimate yet", 256, 1, 0, 1},
		{"empty queue", 0, 1, time.Second, 1},
		{"256 one-sample calls", 256, 1, time.Second, 5},
		{"a partial last batch", 65, 1, time.Second, 3},
		{"multi-sample calls", 8, 32, time.Second, 5},
		{"fast forwards", 256, 1, 9 * time.Millisecond, 1},
		{"clamped", 256, 64, time.Second, 60},
	} {
		b := &batcher{maxBatch: 64}
		for i := 0; i < tc.calls; i++ {
			b.queue = append(b.queue, &call{n: tc.samples})
		}
		b.ewmaNS.Store(int64(tc.per))
		if got := b.retryAfter(); got != tc.want {
			t.Errorf("%s: retryAfter = %d, want %d", tc.name, got, tc.want)
		}
	}
}
