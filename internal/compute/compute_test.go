package compute

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// coverage runs ParallelFor and asserts every index of [0, n) is visited
// exactly once, with monotone non-overlapping blocks.
func coverage(t *testing.T, be Backend, n, grain int) {
	t.Helper()
	var mu sync.Mutex
	seen := make([]int, n)
	be.ParallelFor(n, grain, func(lo, hi int) {
		if lo < 0 || hi > n || lo >= hi {
			t.Errorf("bad block [%d,%d) for n=%d", lo, hi, n)
		}
		mu.Lock()
		for i := lo; i < hi; i++ {
			seen[i]++
		}
		mu.Unlock()
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("n=%d grain=%d: index %d visited %d times", n, grain, i, c)
		}
	}
}

func TestParallelForCoverage(t *testing.T) {
	backends := map[string]Backend{
		"serial":     Serial{},
		"parallel4":  NewParallel(4),
		"parallel16": NewParallel(16),
	}
	cases := []struct{ n, grain int }{
		{0, 1}, {1, 1}, {1, 100}, {2, 1}, {3, 2}, {7, 3}, {16, 4},
		{17, 4}, {100, 1}, {100, 7}, {1000, 999}, {1000, 1001}, {4097, 64},
	}
	for name, be := range backends {
		for _, c := range cases {
			coverage(t, be, c.n, c.grain)
		}
		if name == "" {
			t.Fatal("unreachable")
		}
	}
}

func TestParallelForSmallNRunsInline(t *testing.T) {
	// Fewer than 2*grain iterations must stay a single block.
	be := NewParallel(8)
	calls := 0
	be.ParallelFor(63, 32, func(lo, hi int) { calls++ })
	if calls != 1 {
		t.Fatalf("expected a single inline block, got %d", calls)
	}
}

func TestParallelForInlineThresholdCutover(t *testing.T) {
	// Pins the inline work threshold: one iteration below
	// MinParallelGrains*grain the kernel must run as a single inline
	// block; at the threshold it must fan out into multiple blocks.
	be := NewParallel(8)
	const grain = 32
	var calls atomic.Int64
	be.ParallelFor(MinParallelGrains*grain-1, grain, func(lo, hi int) { calls.Add(1) })
	if got := calls.Load(); got != 1 {
		t.Fatalf("below threshold: got %d blocks, want 1 inline block", got)
	}
	calls.Store(0)
	be.ParallelFor(MinParallelGrains*grain, grain, func(lo, hi int) { calls.Add(1) })
	if got := calls.Load(); got < 2 {
		t.Fatalf("at threshold: got %d blocks, want ≥ 2", got)
	}
}

func TestParallelForGrainOneBypassesThreshold(t *testing.T) {
	// grain ≤ 1 declares each iteration dispatch-worthy on its own
	// (e.g. whole conv images), so a 2-iteration kernel must still
	// split even though 2 < MinParallelGrains.
	be := NewParallel(8)
	var calls atomic.Int64
	be.ParallelFor(2, 1, func(lo, hi int) { calls.Add(1) })
	if got := calls.Load(); got != 2 {
		t.Fatalf("grain=1 n=2: got %d blocks, want 2", got)
	}
}

func TestParallelForNested(t *testing.T) {
	// Nested ParallelFor must complete (no deadlock) and cover all work.
	be := NewParallel(runtime.NumCPU() + 2)
	var total atomic.Int64
	be.ParallelFor(8, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			be.ParallelFor(100, 1, func(ilo, ihi int) {
				total.Add(int64(ihi - ilo))
			})
		}
	})
	if got := total.Load(); got != 800 {
		t.Fatalf("nested ParallelFor covered %d iterations, want 800", got)
	}
}

func TestParallelForConcurrentUse(t *testing.T) {
	// Many goroutines sharing one backend — the race detector checks the
	// pool, the counters check coverage.
	be := NewParallel(4)
	var wg sync.WaitGroup
	var total atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				buf := be.Get(257)
				be.ParallelFor(1000, 10, func(lo, hi int) {
					total.Add(int64(hi - lo))
				})
				be.Put(buf)
			}
		}()
	}
	wg.Wait()
	if got := total.Load(); got != 8*50*1000 {
		t.Fatalf("concurrent ParallelFor covered %d iterations, want %d", got, 8*50*1000)
	}
}

func TestParallelForPanicPropagates(t *testing.T) {
	// A panic in any block must surface on the caller — after all blocks
	// finished — rather than killing a pool goroutine or returning early.
	be := NewParallel(4)
	var finished atomic.Int64
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected ParallelFor to re-raise the block panic")
		} else if r != "boom" {
			t.Fatalf("unexpected panic value %v", r)
		}
		if finished.Load() == 0 {
			t.Fatal("no block ran to completion before the panic surfaced")
		}
	}()
	be.ParallelFor(1000, 10, func(lo, hi int) {
		if lo == 0 {
			panic("boom")
		}
		finished.Add(1)
	})
	t.Fatal("unreachable: ParallelFor should have panicked")
}

func TestPutBufDropsOversized(t *testing.T) {
	// Buffers above the top bucket must not be retained by the pool.
	huge := make([]float64, (1<<maxBucket)+1)
	f64Pool.put(huge) // must not park it in bucket maxBucket
	if v := f64Pool.buckets[maxBucket].Get(); v != nil {
		if cap(*v.(*[]float64)) > 1<<maxBucket {
			t.Fatal("oversized buffer was retained in the top bucket")
		}
		f64Pool.buckets[maxBucket].Put(v) // unrelated buffer: put it back
	}
}

func TestWorkers(t *testing.T) {
	if w := (Serial{}).Workers(); w != 1 {
		t.Fatalf("Serial.Workers() = %d, want 1", w)
	}
	if w := NewParallel(5).Workers(); w != 5 {
		t.Fatalf("NewParallel(5).Workers() = %d, want 5", w)
	}
	if w := NewParallel(0).Workers(); w != runtime.NumCPU() {
		t.Fatalf("NewParallel(0).Workers() = %d, want NumCPU=%d", w, runtime.NumCPU())
	}
}

func TestBufferPoolSizedAndRecycled(t *testing.T) {
	be := Serial{}
	b := be.Get(100)
	if len(b) != 100 {
		t.Fatalf("Get(100) returned len %d", len(b))
	}
	for i := range b {
		b[i] = float64(i + 1)
	}
	be.Put(b)
	// Recycled buffers come back at the requested length with
	// unspecified contents (Get does not zero) and enough capacity.
	c := be.Get(70)
	if len(c) != 70 {
		t.Fatalf("Get(70) returned len %d", len(c))
	}
	if cap(c) < 70 {
		t.Fatalf("Get(70) returned cap %d", cap(c))
	}
	if be.Get(0) != nil {
		t.Fatal("Get(0) should return nil")
	}
	be.Put(nil) // must not panic
}

func TestUint64PoolSizedAndRecycled(t *testing.T) {
	b := GetUint64(100)
	if len(b) != 100 {
		t.Fatalf("GetUint64(100) returned len %d", len(b))
	}
	for i := range b {
		b[i] = uint64(i + 1)
	}
	PutUint64(b)
	c := GetUint64(70)
	if len(c) != 70 || cap(c) < 70 {
		t.Fatalf("GetUint64(70) returned len %d cap %d", len(c), cap(c))
	}
	if GetUint64(0) != nil {
		t.Fatal("GetUint64(0) should return nil")
	}
	PutUint64(nil) // must not panic
	huge := make([]uint64, (1<<maxBucket)+1)
	PutUint64(huge) // must not be retained
	if v := u64Pool.buckets[maxBucket].Get(); v != nil {
		if cap(*v.(*[]uint64)) > 1<<maxBucket {
			t.Fatal("oversized uint64 buffer was retained in the top bucket")
		}
		u64Pool.buckets[maxBucket].Put(v)
	}
}

func TestBucketFor(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := bucketFor(n); got != want {
			t.Fatalf("bucketFor(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestDefaultOverride(t *testing.T) {
	orig := Default()
	t.Cleanup(func() { SetDefault(nil) })
	s := Serial{}
	SetDefault(s)
	if Default() != Backend(s) {
		t.Fatal("SetDefault(Serial) not observed")
	}
	SetDefault(nil)
	if Default() != orig {
		t.Fatal("SetDefault(nil) did not restore the built-in default")
	}
}

func TestNewWidthSelection(t *testing.T) {
	if _, ok := New(1).(Serial); !ok {
		t.Fatal("New(1) should be Serial")
	}
	if p, ok := New(3).(*Parallel); !ok || p.Workers() != 3 {
		t.Fatal("New(3) should be Parallel of width 3")
	}
}
