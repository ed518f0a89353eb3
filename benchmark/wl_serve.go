package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"
)

// serveRequests is the inference server as a caller meets it: SNN(1, 8)
// checkpoint bytes → tape-free engine → coalescing server, predict
// requests pushed through its HTTP handler in process. Lap kind A is one
// caller in a closed loop, where BatchWait policy, parsing and encoding
// show; kind B is 2 × MaxBatch callers, where the batched forward,
// coalescing and the processor time a request costs show. Training and
// attack code does nothing.
type serveRequests struct {
	set     *trainedSet
	samples *datasetT
	bodies  [][]byte
	order   []int          // seed-drawn order the callers walk the bodies in
	ids     map[uint64]int // input-row digest → sample index
}

// Laps are a third of a second each, so a run times some thirty of each
// kind and its fastest lap has met the host at its calmest.
const (
	servePath      = "/v1/predict"
	serveSamples   = 256
	serveMaxBatch  = 64                // the server's default MaxBatch
	serveCallersB  = 2 * serveMaxBatch // one batch in the forward pass, the next one queueing: batches fill
	serveRequestsA = 100
	servePerCallB  = 4
	kindA, kindB   = 0, 1
)

func (w *serveRequests) setup(seed uint64) (float64, error) {
	t0 := time.Now()
	set, err := trainCheckpoints(false)
	if err != nil {
		return 0, err
	}
	samples, err := evalDigits(serveSamples, seed)
	if err != nil {
		return 0, err
	}
	w.set, w.samples = set, samples
	w.bodies = make([][]byte, serveSamples)
	w.ids = make(map[uint64]int, serveSamples)
	xd := samples.X.Data()
	row := len(xd) / serveSamples
	for i := range w.bodies {
		in := xd[i*row : (i+1)*row]
		if w.bodies[i], err = json.Marshal(map[string][][]float64{"inputs": {in}}); err != nil {
			return 0, err
		}
		w.ids[digestFloats(in)] = i
	}
	if len(w.ids) != serveSamples {
		return 0, fmt.Errorf("evaluation samples collide under digestFloats")
	}
	w.order = newRand(seed, 0x5e17e).Perm(serveSamples)
	return time.Since(t0).Seconds(), nil
}

func (w *serveRequests) check(g *gates) { checkEngineMatchesTape(g, w.set.snn, w.samples.X) }
func (w *serveRequests) kinds() int     { return 2 }

// procs: one P for the callers and the dispatcher together. A lap B with
// both vCPUs in play is as slow as the slower of the two and waits on
// hand-offs between them: interleaved with one-P laps on the same host
// its laps spread 32 % against their 22 %, the same as the bare engine
// forward. On one P it reads the processor time a request costs — parse,
// its share of the batch forward, encode, collection — and no longer how
// far parsing overlaps the forward pass.
func (w *serveRequests) procs() int { return 1 }

func digestFloats(v []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, f := range v {
		h = (h ^ math.Float64bits(f)) * 1099511628211
	}
	return h
}

// checkedRunner sits between the server and the engine and notes, per
// evaluation sample, what the engine itself last predicted for it. The
// dispatcher writes a sample's slot before it delivers the reply and the
// caller reads it after, and the laps keep a sample in flight at most
// once, so the slots need no lock.
type checkedRunner struct {
	eng  *engine
	ids  map[uint64]int
	pred []atomic.Int32
}

func (c *checkedRunner) SampleShape() []int { return c.eng.SampleShape() }

func (c *checkedRunner) Logits(x *tensorT) (*tensorT, error) {
	out, err := c.eng.Logits(x)
	if err != nil {
		return nil, err
	}
	xd := x.Data()
	row := len(xd) / x.Dim(0)
	for i, p := range argmaxRowsOn(serial, out) {
		if id, ok := c.ids[digestFloats(xd[i*row:(i+1)*row])]; ok {
			c.pred[id].Store(int32(p))
		}
	}
	return out, nil
}

// newServer is the lap's way from checkpoint bytes to a running server
// at default settings. checked interposes the checkedRunner.
func (w *serveRequests) newServer(checked bool, trace *bytes.Buffer) (*serveServer, *checkedRunner, error) {
	eng, err := engineFromBytes(w.set.snn, serial)
	if err != nil {
		return nil, nil, err
	}
	var runner serveRunner = eng
	var cr *checkedRunner
	if checked {
		cr = &checkedRunner{eng: eng, ids: w.ids, pred: make([]atomic.Int32, serveSamples)}
		runner = cr
	}
	cfg := serveConfig{}
	if trace != nil {
		cfg.TraceWriter = trace
	}
	srv, err := serveNewServer(cfg, &serveModel{Fingerprint: modelioFingerprint(w.set.snn), Runner: runner}, nil)
	return srv, cr, err
}

// replyPred checks a reply's shape — 200, a JSON object that starts with
// the model fingerprint and ends with one prediction — and returns the
// prediction, without allocating.
func replyPred(resp *memResponse) (int, bool) {
	b := resp.body.Bytes()
	if resp.status != http.StatusOK || !bytes.HasPrefix(b, []byte(`{"model":"`)) {
		return 0, false
	}
	i := bytes.LastIndex(b, []byte(`"preds":[`))
	if i < 0 {
		return 0, false
	}
	rest := b[i+len(`"preds":[`):]
	if len(rest) < 3 || rest[0] < '0' || rest[0] > '9' || !bytes.HasPrefix(rest[1:], []byte("]}")) {
		return 0, false
	}
	return int(rest[0] - '0'), true
}

// serveLapStats is what one serve lap measured beyond its lapOut.
type serveLapStats struct {
	waitsMS []float64 // per request, caller 0's only in a B lap
	wall    time.Duration
}

// runLap runs one closed-loop lap against a fresh server: kind A sends
// serveRequestsA requests from one caller, kind B servePerCallB from
// each of serveCallersB callers. Caller c's i-th request is body
// order[(c + callers·i) mod samples], so the callers walk disjoint sets.
func (w *serveRequests) runLap(kind int, trace *bytes.Buffer) (lapOut, serveLapStats, error) {
	srv, cr, err := w.newServer(true, trace)
	if err != nil {
		return lapOut{}, serveLapStats{}, err
	}
	defer srv.Close()
	h := srv.Handler()
	callers, per := 1, serveRequestsA
	if kind == kindB {
		callers, per = serveCallersB, servePerCallB
	}
	var st serveLapStats
	st.waitsMS = make([]float64, per)
	var ok200, bad atomic.Int64
	digest := fnv.New64a()
	sample := func(c, i int) int { return w.order[(c+callers*i)%serveSamples] }
	t0 := time.Now()
	closedLoop(h, servePath, callers, per,
		func(c, i int) []byte { return w.bodies[sample(c, i)] },
		func(c, i int, resp *memResponse, waited time.Duration) {
			pred, shaped := replyPred(resp)
			if resp.status == http.StatusOK {
				ok200.Add(1)
			}
			if !shaped || int32(pred) != cr.pred[sample(c, i)].Load() {
				bad.Add(1)
			}
			if c == 0 {
				st.waitsMS[i] = float64(waited.Nanoseconds()) / 1e6
				if resp.status != http.StatusOK {
					st.waitsMS[i] = math.Inf(1)
				}
				if kind == kindA {
					digest.Write(resp.body.Bytes())
				}
			}
		})
	st.wall = time.Since(t0)
	out := lapOut{ops: callers * per, failed: int(bad.Load())}
	if kind == kindA {
		// One caller, batches of one, a fresh engine: the replies repeat
		// byte for byte, and batch composition is fixed, so this is the
		// lap kind whose allocations are counted.
		out.hash = digest.Sum64()
		out.latencyMS = median(st.waitsMS)
		out.countAllocs = true
	} else {
		// Which requests share a batch is up to the scheduler, and with it
		// the rate encoder's stream: only the replies' shape and count
		// repeat.
		out.hash = uint64(ok200.Load())
		out.workPerS = float64(ok200.Load()) / st.wall.Seconds()
	}
	return out, st, nil
}

func (w *serveRequests) lap(kind int) (lapOut, error) {
	out, _, err := w.runLap(kind, nil)
	return out, err
}

func parseTrace(buf *bytes.Buffer) ([]traceRecord, error) {
	var recs []traceRecord
	sc := bufio.NewScanner(buf)
	for sc.Scan() {
		var rec traceRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("trace record %q: %w", sc.Text(), err)
		}
		recs = append(recs, rec)
	}
	return recs, sc.Err()
}

// ladderRates are the open-loop rungs, requests per second.
var ladderRates = []float64{200, 400, 800, 1600, 3200}

// kneeLimitMS is the p99 a rung must stay under, with nothing rejected,
// to count as sustained.
const kneeLimitMS = 20

func (w *serveRequests) traced(r *tracedRun) error {
	w.check(r.gates)
	for _, phase := range []func(*tracedRun) error{w.probeEngine, w.tracedLaps, w.ladder, w.armedOverhead} {
		if err := phase(r); err != nil {
			return err
		}
	}
	// The engine shares the taped network's kernels: densities measured
	// through the (bit-identical) taped forward on a MaxBatch of the
	// request samples, kernels probed at that batch size.
	return probeEngineLayers(r, w.set.snn, w.samples.Subset(0, serveMaxBatch).X, serveMaxBatch)
}

// probeEngine times the parser and the engine on their own.
func (w *serveRequests) probeEngine(r *tracedRun) error {
	r.set("serve.parse_us", 1e3*medianTime(10*probeReps, func() {
		if _, err := serveParsePredictRequest(w.bodies[0]); err != nil {
			r.gates.failf("parsing a request body: %v", err)
		}
	}))
	eng, err := engineFromBytes(w.set.snn, serial)
	if err != nil {
		return err
	}
	for name, x := range map[string]*tensorT{
		"serve.engine_forward_ms_b1":  firstSample(w.samples.X),
		"serve.engine_forward_ms_b64": w.samples.Subset(0, serveMaxBatch).X,
	} {
		var ferr error
		r.set(name, medianTime(probeReps, func() { _, ferr = eng.Logits(x) }))
		if ferr != nil {
			return ferr
		}
	}
	return nil
}

// tracedLaps runs closed-loop laps with the server's own per-request
// trace records switched on and reads the records.
func (w *serveRequests) tracedLaps(r *tracedRun) error {
	var queueUS, transportUS, fwdPerSampleUS []float64
	var bRequests, bBatches float64
	rounds := max(1, int(r.budget.Seconds()/3))
	r.lapsBegin()
	for round := 0; round < rounds; round++ {
		for _, kind := range []int{kindA, kindB} {
			var buf bytes.Buffer
			id := r.spans.begin([]string{"serve.lapA", "serve.lapB"}[kind], 0, round)
			out, st, err := w.runLap(kind, &buf)
			r.spans.end(id)
			if err != nil {
				return err
			}
			r.ops += out.ops
			r.failed += out.failed
			recs, err := parseTrace(&buf)
			if err != nil {
				return err
			}
			if len(recs) != out.ops {
				r.gates.failf("lap of %d requests left %d trace records", out.ops, len(recs))
				continue
			}
			for i, rec := range recs {
				if kind == kindA {
					// One caller: the i-th record is the i-th request.
					queueUS = append(queueUS, float64(rec.QueueNS)/1e3)
					transportUS = append(transportUS, st.waitsMS[i]*1e3-float64(rec.TotalNS)/1e3)
				} else if rec.BatchCalls > 0 {
					bRequests++
					bBatches += 1 / float64(rec.BatchCalls)
					fwdPerSampleUS = append(fwdPerSampleUS, float64(rec.ForwardNS)/1e3/float64(rec.BatchN))
				}
			}
		}
	}
	r.lapsEnd(rounds * (serveRequestsA + serveCallersB*servePerCallB))
	r.set("serve.queue_wait_us", median(queueUS))
	r.set("serve.transport_us", median(transportUS))
	r.set("serve.forward_us_per_sample", median(fwdPerSampleUS))
	if bBatches > 0 {
		// Every request carries one sample, so samples and calls per batch
		// coincide here; both are reported because the server counts both.
		r.set("serve.batch_size_mean", bRequests/bBatches)
		r.set("serve.coalesced_calls_mean", bRequests/bBatches)
	}
	return nil
}

// ladder is the open-loop rate ladder, ungated: latency from each
// request's due time, against one server at default settings.
func (w *serveRequests) ladder(r *tracedRun) error {
	// An open-loop generator that shares the run's one P with the server
	// runs late whenever a forward pass holds it; the ladder gets them all.
	defer setProcs(runtime.NumCPU())()
	srv, _, err := w.newServer(false, nil)
	if err != nil {
		return err
	}
	defer srv.Close()
	h := srv.Handler()
	var knee, lateMax float64
	for _, rate := range ladderRates {
		id := r.spans.begin(fmt.Sprintf("serve.ladder.r%.0f", rate), 0, 0)
		rep := openLoop(h, servePath, rate, r.budget/10, func(i int) []byte { return w.bodies[w.order[i%serveSamples]] })
		r.spans.end(id)
		p50, p99 := percentile(rep.latencyMS, 50), percentile(rep.latencyMS, 99)
		lateMax = max(lateMax, rep.lateMaxMS)
		switch rate {
		case 200:
			r.set("serve.p50_ms_r200", finite(p50))
			r.set("serve.p99_ms_r200", finite(p99))
		case 800:
			r.set("serve.p99_ms_r800", finite(p99))
		case 3200:
			r.set("serve.rejected_share_r3200", float64(rep.rejected)/float64(rep.sent))
		}
		if p99 <= kneeLimitMS && rep.ok == rep.sent && rate > knee {
			knee = rate
		}
		fmt.Fprintf(r.log, "open loop %4.0f/s: sent %d, ok %d, rejected %d, p50 %.3g ms, p99 %.3g ms, generator late max %.3g ms\n",
			rate, rep.sent, rep.ok, rep.rejected, p50, p99, rep.lateMaxMS)
	}
	r.set("serve.knee_rps", knee)
	r.set("serve.generator_late_ms_max", lateMax)
	return nil
}

// armedOverhead is the instrumentation's cost: B laps with the registry
// armed and disarmed in turn. It leaves the registry armed, as it found
// it.
func (w *serveRequests) armedOverhead(r *tracedRun) error {
	defer obsArm()
	var rate [2][]float64 // armed, disarmed
	for i := 0; i < 2*max(1, int(r.budget.Seconds()/3)); i++ {
		if i%2 == 0 {
			obsArm()
		} else {
			obsDisarm()
		}
		out, _, err := w.runLap(kindB, nil)
		if err != nil {
			return err
		}
		rate[i%2] = append(rate[i%2], out.workPerS)
	}
	r.set("obs.armed_overhead_pct", 100*(median(rate[1])/median(rate[0])-1))
	return nil
}

// finite maps +Inf (a rung whose percentile landed on a refused request)
// to a value JSON can carry.
func finite(v float64) float64 {
	if math.IsInf(v, 0) {
		return math.MaxFloat64
	}
	return v
}
