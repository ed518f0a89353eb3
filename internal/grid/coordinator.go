package grid

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"snnsec/internal/compute"
	"snnsec/internal/explore"
	"snnsec/internal/faultinject"
	"snnsec/internal/obs"
)

// Launcher starts (or attaches) the worker for one shard and returns its
// transport. ExecLauncher spawns snnsec grid-worker subprocesses; remote
// launchers can return any duplex stream speaking the worker protocol.
type Launcher func(shard int) (Transport, error)

// Options configure a distributed run.
type Options struct {
	// Shards is the worker-process count (default 1). It is clamped to
	// the number of pending points.
	Shards int
	// KernelWorkers is the compute-backend width handed to each worker
	// process. The default divides the coordinator's CPU budget (the
	// default backend's width) by the shard count, extending explore's
	// Workers × KernelWorkers ≤ NumCPU budgeting across processes; set it
	// explicitly when shards run on other machines.
	KernelWorkers int
	// CheckpointDir, when non-empty, persists every completed point (and
	// optional model snapshot) so a killed run can resume.
	CheckpointDir string
	// Resume loads previously completed points from CheckpointDir and
	// schedules only the rest. Without it, an existing checkpoint is an
	// error rather than silently reused.
	Resume bool
	// SnapshotModels additionally stores each trained point's network in
	// the checkpoint (modelio format). Requires CheckpointDir.
	SnapshotModels bool
	// MaxPoints bounds how many new points this invocation computes
	// (0 = no bound). The run then returns a partial result — resumable
	// from the checkpoint, so CheckpointDir is required — which is how
	// budgeted sweeps and the CI resume smoke slice a grid across
	// invocations.
	MaxPoints int
	// StallTimeout is how long a worker may go silent while a point is
	// in flight before the coordinator withdraws the point and reassigns
	// it to a surviving shard (the stalled transport is closed, exactly
	// as if its pipe had died). Workers heartbeat at a quarter of this
	// interval, so a slow point is distinguishable from a hung process.
	// 0 selects the default (2m); negative disables stall detection.
	StallTimeout time.Duration
	// MaxPointRetries bounds how many times a failing point is retried
	// (each retry lands on a different shard's queue) before it is
	// quarantined as a poison point and the sweep completes without it.
	// 0 selects the default (3); negative disables retries — the first
	// failure quarantines the point.
	MaxPointRetries int
	// RetryBackoff is the delay before a failed point's first retry is
	// requeued; the n-th retry waits RetryBackoff<<(n-1). 0 selects the
	// default (1s); negative means requeue immediately.
	RetryBackoff time.Duration
	// Launch starts the shard workers; required.
	Launch Launcher
	// Log, when non-nil, receives progress lines.
	Log io.Writer
	// Logger, when non-nil, replaces Log with a leveled sink: progress at
	// info, retries/stalls/quarantines at warn, per-point detail at info.
	// When nil, Log is wrapped at the info level, so existing callers see
	// exactly the output they always did.
	Logger *obs.Logger
	// ProgressEvery is the period of the coordinator's progress line
	// (completed/total, elapsed, ETA) and of the heartbeat-age gauge
	// refresh. 0 selects the default (10s); negative disables the ticker.
	ProgressEvery time.Duration
}

// Robustness defaults; see the Options fields above.
const (
	defaultStallTimeout    = 2 * time.Minute
	defaultMaxPointRetries = 3
	defaultRetryBackoff    = time.Second
	defaultProgressEvery   = 10 * time.Second
)

// Run executes the grid job across worker processes and merges the
// streamed points into an explore.Result. The merge is bit-identical to
// the single-process explore.Run of the same job (see the package
// comment). The result is partial — with unset points — when MaxPoints
// was hit or ctx was cancelled; in the latter case the context error is
// returned alongside the checkpointed partial result.
func Run(ctx context.Context, spec Spec, opts Options) (*explore.Result, error) {
	// The coordinator needs only the job's grid axes; datasets are loaded
	// lazily by the workers.
	job, err := spec.Build()
	if err != nil {
		return nil, err
	}
	cfg := job.Config
	if err := (&cfg).Validate(); err != nil {
		return nil, err
	}
	// Coordinator-side fault points (checkpoint writes) derive their
	// probabilistic schedule from the run seed unless seeded explicitly,
	// mirroring the workers.
	faultinject.Reseed(cfg.Seed)
	lg := opts.Logger
	if lg == nil {
		lg = obs.NewLogger(opts.Log, obs.LevelInfo)
	}
	if opts.Launch == nil {
		return nil, fmt.Errorf("grid: no launcher configured")
	}
	if opts.SnapshotModels && opts.CheckpointDir == "" {
		return nil, fmt.Errorf("grid: SnapshotModels requires CheckpointDir")
	}
	if opts.Resume && opts.CheckpointDir == "" {
		return nil, fmt.Errorf("grid: Resume requires CheckpointDir")
	}
	if opts.MaxPoints > 0 && opts.CheckpointDir == "" {
		return nil, fmt.Errorf("grid: MaxPoints produces a partial result that is only useful with a CheckpointDir to resume from")
	}

	res := explore.NewPartialResult(cfg.Vths, cfg.Ts, cfg.Epsilons)
	var ck *checkpoint
	if opts.CheckpointDir != "" {
		ck, err = initCheckpoint(opts.CheckpointDir, spec, &cfg, opts.Resume)
		if err != nil {
			return nil, err
		}
		if opts.Resume {
			done, corrupt, err := ck.load(res)
			if err != nil {
				return nil, err
			}
			if len(corrupt) > 0 {
				lg.Warnf("grid: quarantined %d corrupt checkpoint file(s) (%s); their points will be recomputed",
					len(corrupt), strings.Join(corrupt, ", "))
			}
			for idx, p := range done {
				res.Set(idx, p)
			}
			lg.Infof("grid: resumed %d/%d points from %s", len(done), len(res.Points), opts.CheckpointDir)
		}
	}
	pending := res.MissingIndices()
	if len(pending) == 0 {
		return res, nil
	}

	shards := opts.Shards
	if shards < 1 {
		shards = 1
	}
	if shards > len(pending) {
		shards = len(pending)
	}
	kernelWorkers := opts.KernelWorkers
	if kernelWorkers <= 0 {
		kernelWorkers = compute.Default().Workers() / shards
		if kernelWorkers < 1 {
			kernelWorkers = 1
		}
	}
	lg.Infof("grid: %d points over %d shards, %d kernel workers each", len(pending), shards, kernelWorkers)

	stallTimeout := opts.StallTimeout
	switch {
	case stallTimeout == 0:
		stallTimeout = defaultStallTimeout
	case stallTimeout < 0:
		stallTimeout = 0
	}
	maxRetries := opts.MaxPointRetries
	switch {
	case maxRetries == 0:
		maxRetries = defaultMaxPointRetries
	case maxRetries < 0:
		maxRetries = 0
	}
	backoff := opts.RetryBackoff
	switch {
	case backoff == 0:
		backoff = defaultRetryBackoff
	case backoff < 0:
		backoff = 0
	}

	co := &coordinator{
		spec:          spec,
		sched:         newScheduler(pending, shards, opts.MaxPoints, maxRetries, backoff),
		res:           res,
		ck:            ck,
		wantModel:     opts.SnapshotModels,
		kernelWorkers: kernelWorkers,
		stallTimeout:  stallTimeout,
		lg:            lg,
		total:         len(res.Points),
		resumed:       len(res.Points) - len(pending),
		lastMsg:       make([]atomic.Int64, shards),
	}

	progressEvery := opts.ProgressEvery
	if progressEvery == 0 {
		progressEvery = defaultProgressEvery
	}
	if progressEvery > 0 {
		progressStop := make(chan struct{})
		defer close(progressStop)
		go co.progressLoop(progressEvery, progressStop)
	}

	// Cancellation: stop handing out work and close the transports so
	// workers blocked in reads unwind. Completed points are already on
	// disk, so a cancelled (or killed) run resumes from its checkpoint.
	cancelDone := make(chan struct{})
	defer close(cancelDone)
	go func() {
		select {
		case <-ctx.Done():
			co.sched.stop()
			co.closeTransports()
		case <-cancelDone:
		}
	}()

	var wg sync.WaitGroup
	errs := make([]error, shards)
	for w := 0; w < shards; w++ {
		t, err := opts.Launch(w)
		if err != nil {
			// Launch failures degrade the shard count; the remaining
			// workers absorb the block through stealing.
			errs[w] = fmt.Errorf("grid: launching shard %d: %w", w, err)
			lg.Warnf("grid: shard %d failed to launch: %v", w, err)
			continue
		}
		co.addTransport(t)
		wg.Add(1)
		go func(w int, t Transport) {
			defer wg.Done()
			defer t.Close()
			if err := co.serveShard(w, t); err != nil {
				errs[w] = err
				lg.Warnf("grid: shard %d failed: %v", w, err)
			}
		}(w, t)
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return res, err
	}
	// A failed checkpoint write voids the durability promise even when
	// every point completed in memory — never report such a run clean.
	if err := co.fatalError(); err != nil {
		return res, err
	}
	// Poison points were deliberately abandoned: the sweep completes as a
	// partial result (their cells stay unset, the report renders them as
	// missing) rather than failing everything for a few bad cells.
	if q := co.sched.quarantined(); len(q) > 0 {
		lg.Warnf("grid: %d poison point(s) quarantined after repeated failures: %v — result is partial", len(q), q)
	}
	if rem := co.sched.pendingCount(); rem > 0 {
		if co.sched.budgetExhausted() {
			lg.Infof("grid: point budget reached, %d points remain (resume from the checkpoint to continue)", rem)
			return res, nil
		}
		return res, errors.Join(append([]error{fmt.Errorf("grid: run incomplete, %d points remain", rem)}, errs...)...)
	}
	return res, nil
}

// coordinator is the shared state of one Run.
type coordinator struct {
	spec          Spec
	sched         *scheduler
	ck            *checkpoint
	wantModel     bool
	kernelWorkers int
	// stallTimeout is the resolved silence budget for an in-flight point
	// (0 = stall detection disabled).
	stallTimeout time.Duration
	lg           *obs.Logger
	total        int
	// resumed counts the points already complete before this run.
	resumed int
	// lastMsg holds, per shard, the unix-nano stamp of the shard's most
	// recent message; the progress ticker turns it into the heartbeat-age
	// gauge. Zero means the shard has not spoken yet.
	lastMsg []atomic.Int64

	mu         sync.Mutex
	res        *explore.Result
	transports []Transport
	completed  int
	// fatal records the first unrecoverable coordinator-side failure
	// (a checkpoint that could not be written); it fails the run even
	// when all points completed.
	fatal error
}

func (co *coordinator) fatalError() error {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.fatal
}

func (co *coordinator) addTransport(t Transport) {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.transports = append(co.transports, t)
}

func (co *coordinator) closeTransports() {
	co.mu.Lock()
	defer co.mu.Unlock()
	for _, t := range co.transports {
		t.Close()
	}
}

// serveShard drives one worker: hello, then a pull loop — the worker
// announces ready, the coordinator assigns the next point (its own block
// first, then stolen stragglers). A transport error at any step hands
// the in-flight point to the retry scheduler for reassignment to a
// surviving shard; so does a stall — a worker that stays silent for the
// stall timeout while a point is in flight (heartbeats reset the clock)
// has its point withdrawn and its transport closed, exactly as if the
// pipe had died.
func (co *coordinator) serveShard(shard int, t Transport) (err error) {
	c := newConn(t)
	// Heartbeats at a quarter of the stall timeout give a healthy-but-
	// slow worker four chances per window to prove it is alive.
	hbMS := 0
	if co.stallTimeout > 0 {
		if hbMS = int(co.stallTimeout / 4 / time.Millisecond); hbMS < 1 {
			hbMS = 1
		}
	}
	if err := c.send(message{
		Type:          msgHello,
		Builder:       co.spec.Builder,
		Spec:          co.spec.Config,
		KernelWorkers: co.kernelWorkers,
		WantModel:     co.wantModel,
		HeartbeatMS:   hbMS,
	}); err != nil {
		return fmt.Errorf("grid: shard %d hello: %w", shard, err)
	}

	// recv blocks in a read syscall, so watching for stalls needs the
	// reads on their own goroutine. The reader exits on the first recv
	// error or when serveShard returns (closing readerStop; the eventual
	// transport Close unblocks a read still in flight).
	type recvResult struct {
		m   message
		err error
	}
	msgs := make(chan recvResult)
	readerStop := make(chan struct{})
	defer close(readerStop)
	go func() {
		for {
			m, err := c.recv()
			select {
			case msgs <- recvResult{m, err}:
				if err != nil {
					return
				}
			case <-readerStop:
				return
			}
		}
	}()

	inflight := -1
	inflightGauge := metricInflight.With(shardLabel(shard))
	defer inflightGauge.Set(0)
	defer func() {
		if inflight >= 0 {
			co.pointFailed(shard, inflight, "shard lost")
		}
	}()
	for {
		// The stall clock is armed only while a point is in flight — an
		// idle worker blocked on its next assignment legitimately sends
		// nothing — and any message (heartbeats included) resets it.
		var stallC <-chan time.Time
		var stallT *time.Timer
		if inflight >= 0 && co.stallTimeout > 0 {
			stallT = time.NewTimer(co.stallTimeout)
			stallC = stallT.C
		}
		var m message
		select {
		case r := <-msgs:
			if stallT != nil {
				stallT.Stop()
			}
			co.lastMsg[shard].Store(time.Now().UnixNano())
			if r.err != nil {
				return fmt.Errorf("grid: shard %d: %w", shard, r.err)
			}
			m = r.m
		case <-stallC:
			idx := inflight
			inflight = -1
			co.pointFailed(shard, idx, fmt.Sprintf("no heartbeat for %v", co.stallTimeout))
			// The worker is known-wedged and its point is withdrawn:
			// kill it outright rather than granting Close's grace
			// period, and reap in the background so neither the
			// rescheduled point nor the run's exit waits on it.
			if k, ok := t.(interface{ Kill() }); ok {
				k.Kill()
			}
			go t.Close()
			return fmt.Errorf("grid: shard %d stalled on point %d (silent for %v); point withdrawn", shard, idx, co.stallTimeout)
		}
		switch m.Type {
		case msgHeartbeat:
			// Liveness only; receiving it already reset the stall clock.
		case msgPointDone:
			if m.Index != inflight || m.Point == nil {
				return fmt.Errorf("grid: shard %d reported point %d, expected %d", shard, m.Index, inflight)
			}
			inflight = -1
			inflightGauge.Set(0)
			metricPointsDone.Inc()
			co.sched.complete()
			if err := co.record(shard, m); err != nil {
				// A checkpoint that cannot be written voids the run's
				// durability promise: halt everything rather than let the
				// sweep continue unprotected.
				co.sched.stop()
				return err
			}
		case msgPointFailed:
			if m.Index != inflight {
				return fmt.Errorf("grid: shard %d failed point %d, expected %d", shard, m.Index, inflight)
			}
			inflight = -1
			inflightGauge.Set(0)
			co.pointFailed(shard, m.Index, m.Err)
		case msgReady:
			idx, ok := co.sched.next(shard)
			if !ok {
				_ = c.send(message{Type: msgDone})
				return nil
			}
			inflight = idx
			inflightGauge.Set(1)
			if err := c.send(message{Type: msgPoint, Index: idx}); err != nil {
				return fmt.Errorf("grid: shard %d assigning point %d: %w", shard, idx, err)
			}
		default:
			return fmt.Errorf("grid: shard %d sent unexpected %q", shard, m.Type)
		}
	}
}

// pointFailed routes one failed attempt through the retry scheduler and
// logs the outcome (backoff retry on another shard, or quarantine).
func (co *coordinator) pointFailed(shard, idx int, cause string) {
	fails, quarantined := co.sched.fail(shard, idx)
	switch {
	case quarantined:
		metricPointsQuarantined.Inc()
		co.lg.Warnf("grid: point %d failed on shard %d (%s) — quarantined after %d failed attempts", idx, shard, cause, fails)
	case fails > 0:
		metricPointRetries.Inc()
		co.lg.Warnf("grid: point %d failed on shard %d (%s), retry %d scheduled", idx, shard, cause, fails)
	}
}

// record merges one completed point into the result and persists it.
func (co *coordinator) record(shard int, m message) error {
	co.mu.Lock()
	defer co.mu.Unlock()
	// A point tagged with a numerics tier comes from an older build's
	// float32 tier; merging it would silently void the bit-identical-
	// merge contract, so it is fatal.
	if m.Point.Precision != "" {
		err := fmt.Errorf("grid: shard %d computed point %d at precision %q — this build has a single float64 tier and cannot merge it",
			shard, m.Index, m.Point.Precision)
		if co.fatal == nil {
			co.fatal = err
		}
		return err
	}
	// So is a point for another cell than the one assigned: merged, it
	// would overwrite the cell's result with a neighbour's.
	if err := checkCell(co.res, m.Index, m.Point.Vth, m.Point.T); err != nil {
		err = fmt.Errorf("grid: shard %d answered for the wrong cell: %w", shard, err)
		if co.fatal == nil {
			co.fatal = err
		}
		return err
	}
	co.res.Set(m.Index, m.Point.Point())
	co.completed++
	if co.ck != nil {
		if err := co.ck.savePoint(m.Index, &m.Point.WirePoint, m.Model); err != nil {
			err = fmt.Errorf("grid: checkpointing point %d: %w", m.Index, err)
			if co.fatal == nil {
				co.fatal = err
			}
			return err
		}
	}
	co.lg.Infof("grid: point %d (Vth=%g, T=%d) done on shard %d [%d/%d]",
		m.Index, m.Point.Vth, m.Point.T, shard, co.resumed+co.completed, co.total)
	return nil
}

// progressLoop periodically logs sweep progress with an ETA
// extrapolated from the completed-point rate, and refreshes the
// per-shard heartbeat-age gauges (an age gauge updated on receipt would
// always read ~0; sampling on the ticker is what makes a silent shard
// visible).
func (co *coordinator) progressLoop(every time.Duration, stop <-chan struct{}) {
	start := time.Now()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		now := time.Now()
		for i := range co.lastMsg {
			if last := co.lastMsg[i].Load(); last > 0 {
				metricHeartbeatAge.With(shardLabel(i)).Set(now.Sub(time.Unix(0, last)).Seconds())
			}
		}
		co.mu.Lock()
		done := co.completed
		co.mu.Unlock()
		newTotal := co.total - co.resumed
		elapsed := now.Sub(start)
		eta := ""
		if done > 0 && done < newTotal {
			rem := time.Duration(float64(elapsed) / float64(done) * float64(newTotal-done))
			eta = fmt.Sprintf(", eta %v", rem.Round(time.Second))
		}
		co.lg.Infof("grid: progress %d/%d points, %v elapsed%s",
			co.resumed+done, co.total, elapsed.Round(time.Second), eta)
	}
}

// ---------------------------------------------------------------------------
// Scheduler: static blocks + work stealing

// scheduler hands out pending point indices. Each shard owns one
// contiguous block (static assignment); a shard whose block drains
// steals from the back of the richest remaining block. A shard with no
// work left blocks until every in-flight point lands and every retry
// backoff drains — if a straggler shard dies or stalls, its point comes
// back and an idle shard picks it up. A point that keeps failing is
// retried at most maxRetries times (each retry targets a different
// shard's queue, after an exponential backoff) and then quarantined:
// the sweep completes without it rather than looping on a poison cell.
type scheduler struct {
	mu       sync.Mutex
	cond     *sync.Cond
	queues   [][]int
	inflight int
	// delayed counts points parked in retry-backoff timers — work that
	// will reappear, so idle shards must not give up while it is pending.
	delayed int
	// fails counts failed attempts per point index.
	fails      map[int]int
	maxRetries int
	backoff    time.Duration
	// poisoned lists the quarantined point indices, in quarantine order.
	poisoned []int
	// budget is the remaining new-assignment allowance (-1 = unlimited).
	budget int
	// exhausted latches once a shard was turned away because the budget
	// hit zero, so a later retry refund cannot make the run look like a
	// worker failure.
	exhausted bool
	stopped   bool
}

func newScheduler(pending []int, shards, maxPoints, maxRetries int, backoff time.Duration) *scheduler {
	s := &scheduler{
		queues:     make([][]int, shards),
		fails:      make(map[int]int),
		maxRetries: maxRetries,
		backoff:    backoff,
		budget:     -1,
	}
	if maxPoints > 0 {
		s.budget = maxPoints
	}
	s.cond = sync.NewCond(&s.mu)
	// Contiguous blocks in index order, sized as evenly as possible.
	per := len(pending) / shards
	extra := len(pending) % shards
	lo := 0
	for w := 0; w < shards; w++ {
		hi := lo + per
		if w < extra {
			hi++
		}
		s.queues[w] = append([]int(nil), pending[lo:hi]...)
		lo = hi
	}
	return s
}

// next returns the next point for a shard, blocking while other shards
// still have points in flight (their failure may produce new work). The
// second return is false when the shard should shut down: no work left,
// the assignment budget is spent, or the run was stopped.
func (s *scheduler) next(shard int) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.budget == 0 {
			s.exhausted = true
			return 0, false
		}
		if s.stopped {
			return 0, false
		}
		if idx, ok := s.pop(shard); ok {
			s.inflight++
			if s.budget > 0 {
				s.budget--
			}
			return idx, true
		}
		if s.inflight == 0 && s.delayed == 0 {
			return 0, false
		}
		s.cond.Wait()
	}
}

// pop takes from the shard's own block first, then steals from the back
// of the richest other block.
func (s *scheduler) pop(shard int) (int, bool) {
	if q := s.queues[shard]; len(q) > 0 {
		idx := q[0]
		s.queues[shard] = q[1:]
		return idx, true
	}
	richest, max := -1, 0
	for w, q := range s.queues {
		if len(q) > max {
			richest, max = w, len(q)
		}
	}
	if richest < 0 {
		return 0, false
	}
	q := s.queues[richest]
	idx := q[len(q)-1]
	s.queues[richest] = q[:len(q)-1]
	metricSteals.Inc()
	return idx, true
}

// complete marks one in-flight point as landed.
func (s *scheduler) complete() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inflight--
	s.cond.Broadcast()
}

// fail records one failed attempt for an in-flight point. While the
// point is under its retry allowance it is requeued — to a different
// shard each time, after an exponential backoff — with its assignment
// budget refunded; past the allowance it is quarantined and the sweep
// moves on without it. The returned count is the point's total failed
// attempts (0 when the scheduler is already stopped and the failure is
// discarded).
func (s *scheduler) fail(shard, idx int) (fails int, quarantined bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inflight--
	if s.stopped {
		s.cond.Broadcast()
		return 0, false
	}
	s.fails[idx]++
	n := s.fails[idx]
	if n > s.maxRetries {
		s.poisoned = append(s.poisoned, idx)
		s.cond.Broadcast()
		return n, true
	}
	if s.budget >= 0 {
		s.budget++
	}
	// A different shard per retry: if the failure was the worker's (a
	// wedged process, a sick host), the retry dodges it; if it is the
	// point's, distinct workers failing is what justifies quarantine.
	target := (shard + n) % len(s.queues)
	shift := n - 1
	if shift > 16 {
		shift = 16
	}
	s.delayed++
	time.AfterFunc(s.backoff<<shift, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.delayed--
		s.queues[target] = append(s.queues[target], idx)
		s.cond.Broadcast()
	})
	s.cond.Broadcast()
	return n, false
}

// quarantined returns the poison points abandoned so far.
func (s *scheduler) quarantined() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.poisoned...)
}

// stop makes every subsequent (and blocked) next call return false.
func (s *scheduler) stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stopped = true
	s.cond.Broadcast()
}

// pendingCount returns queued, in-flight and backoff-parked points.
// Quarantined points are not pending: they were deliberately abandoned.
func (s *scheduler) pendingCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.inflight + s.delayed
	for _, q := range s.queues {
		n += len(q)
	}
	return n
}

// budgetExhausted reports whether the MaxPoints allowance was used up.
func (s *scheduler) budgetExhausted() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.exhausted || s.budget == 0
}
