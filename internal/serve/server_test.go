package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snnsec/internal/modelio"
	"snnsec/internal/tensor"
)

// Scheduling tests for the server hot path. These run under -race in CI:
// many clients on one batcher, cache eviction mid-load, deadline expiry
// withdrawing queued calls, and queue-overflow backpressure.

// fakeRunner computes a deterministic per-sample function so any client
// can verify its own rows regardless of how requests were coalesced. An
// optional delay simulates a slow forward.
type fakeRunner struct {
	sample  []int
	classes int
	delay   time.Duration
	calls   atomic.Int64 // forward passes
	samples atomic.Int64 // samples across all passes
	id      float64      // distinguishes models in eviction tests
}

func (f *fakeRunner) SampleShape() []int { return f.sample }

func (f *fakeRunner) Logits(x *tensor.Tensor) (*tensor.Tensor, error) {
	f.calls.Add(1) // counted at entry, so tests can observe an in-flight forward
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	n := x.Dim(0)
	f.samples.Add(int64(n))
	sampleLen := x.Len() / n
	out := tensor.New(n, f.classes)
	od := out.Data()
	xd := x.Data()
	for i := 0; i < n; i++ {
		sum := 0.0
		for _, v := range xd[i*sampleLen : (i+1)*sampleLen] {
			sum += v
		}
		for c := 0; c < f.classes; c++ {
			od[i*f.classes+c] = sum*float64(c+1) + f.id
		}
	}
	return out, nil
}

func newFakeServer(t *testing.T, cfg Config, r *fakeRunner, build BuildFunc) *Server {
	t.Helper()
	s, err := NewServer(cfg, &Model{Fingerprint: "default", Runner: r}, build)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestServerConcurrentClients hammers one batcher from many goroutines
// and has every client verify its own logits, proving coalescing never
// crosses rows between requests.
func TestServerConcurrentClients(t *testing.T) {
	r := &fakeRunner{sample: []int{4}, classes: 3}
	s := newFakeServer(t, Config{MaxBatch: 8, BatchWait: time.Millisecond, QueueDepth: 1024}, r, nil)
	const clients = 16
	const perClient = 20
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(cl), 99))
			for i := 0; i < perClient; i++ {
				n := 1 + rng.IntN(3)
				req := &PredictRequest{Inputs: make([][]float64, n)}
				for j := range req.Inputs {
					row := make([]float64, 4)
					for k := range row {
						row[k] = rng.Float64()
					}
					req.Inputs[j] = row
				}
				resp, err := s.Predict(context.Background(), req)
				if err != nil {
					errs <- fmt.Errorf("client %d: %v", cl, err)
					return
				}
				for j, row := range req.Inputs {
					sum := 0.0
					for _, v := range row {
						sum += v
					}
					for c := 0; c < 3; c++ {
						if resp.Logits[j][c] != sum*float64(c+1) {
							errs <- fmt.Errorf("client %d: row %d class %d: got %v want %v",
								cl, j, c, resp.Logits[j][c], sum*float64(c+1))
							return
						}
					}
					if resp.Preds[j] != 2 {
						errs <- fmt.Errorf("client %d: pred %d, want 2", cl, resp.Preds[j])
						return
					}
				}
			}
		}(cl)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got, want := r.samples.Load(), int64(0); got == want {
		t.Fatal("runner never ran")
	}
	if r.calls.Load() >= r.samples.Load() {
		t.Logf("no coalescing observed (%d calls for %d samples) — legal but unexpected under load",
			r.calls.Load(), r.samples.Load())
	}
}

// TestServerCacheEvictionUnderLoad uploads models past the cache
// capacity while clients keep predicting on them. Requests racing an
// eviction must either finish normally (they hold the Runner) or fail
// with ErrUnknownModel at resolution — never crash or hang.
func TestServerCacheEvictionUnderLoad(t *testing.T) {
	def := &fakeRunner{sample: []int{2}, classes: 2}
	builds := atomic.Int64{}
	build := func(m *modelio.Model) (Runner, error) {
		return &fakeRunner{sample: []int{2}, classes: 2, id: float64(builds.Add(1))}, nil
	}
	s := newFakeServer(t, Config{CacheSize: 2, BatchWait: time.Microsecond, QueueDepth: 1024}, def, build)

	// Distinct checkpoint bytes → distinct fingerprints.
	raws := make([][]byte, 6)
	fps := make([]string, 6)
	for i := range raws {
		var buf bytes.Buffer
		if err := modelio.Save(&buf, map[string]string{"i": fmt.Sprint(i)}, nil); err != nil {
			t.Fatalf("save: %v", err)
		}
		raws[i] = buf.Bytes()
		fps[i] = modelio.Fingerprint(raws[i])
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 8)
	// Uploader: cycles models through the size-2 cache.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			if _, err := s.AddModel(raws[i%len(raws)]); err != nil {
				errs <- fmt.Errorf("AddModel: %v", err)
				return
			}
		}
		close(stop)
	}()
	// Clients: predict on random fingerprints; unknown-model errors are
	// expected (the model may have been evicted), anything else is not.
	for cl := 0; cl < 8; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(cl), 7))
			for {
				select {
				case <-stop:
					return
				default:
				}
				req := &PredictRequest{Model: fps[rng.IntN(len(fps))], Inputs: [][]float64{{1, 2}}}
				_, err := s.Predict(context.Background(), req)
				if err != nil && !errors.Is(err, ErrUnknownModel) {
					errs <- fmt.Errorf("client %d: %v", cl, err)
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := s.cache.Len(); n > 2 {
		t.Fatalf("cache holds %d models, capacity 2", n)
	}
}

// TestServerDeadlineExpiry pins both expiry paths: a request whose
// deadline fires while it waits behind a slow forward gets ErrDeadline
// and is withdrawn (the dispatcher must skip the cancelled call), and a
// cancelled context maps to the same error.
func TestServerDeadlineExpiry(t *testing.T) {
	slow := &fakeRunner{sample: []int{2}, classes: 2, delay: 60 * time.Millisecond}
	s := newFakeServer(t, Config{MaxBatch: 1, BatchWait: time.Microsecond, QueueDepth: 64}, slow, nil)

	// Occupy the dispatcher with a long-deadline request.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.Predict(context.Background(), &PredictRequest{Inputs: [][]float64{{1, 1}}}); err != nil {
			t.Errorf("long request: %v", err)
		}
	}()
	time.Sleep(5 * time.Millisecond) // let it reach the runner
	start := time.Now()
	_, err := s.Predict(context.Background(), &PredictRequest{Inputs: [][]float64{{1, 1}}, DeadlineMS: 10})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("queued request: got %v, want ErrDeadline", err)
	}
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Fatalf("deadline took %v to fire, want ~10ms", d)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Predict(ctx, &PredictRequest{Inputs: [][]float64{{1, 1}}}); !errors.Is(err, ErrDeadline) {
		t.Fatalf("cancelled context: got %v, want ErrDeadline", err)
	}
	wg.Wait()

	// The withdrawn calls must not reach the runner after the fact: give
	// the dispatcher a beat, then check it only ever saw the live call.
	time.Sleep(20 * time.Millisecond)
	if got := slow.calls.Load(); got > 2 {
		t.Fatalf("runner saw %d forwards, want the non-cancelled ones only", got)
	}
}

// TestServerBackpressure fills a depth-1 queue behind a slow forward and
// checks overflow fails fast with ErrOverloaded.
func TestServerBackpressure(t *testing.T) {
	slow := &fakeRunner{sample: []int{1}, classes: 2, delay: 300 * time.Millisecond}
	s := newFakeServer(t, Config{MaxBatch: 1, BatchWait: time.Microsecond, QueueDepth: 1}, slow, nil)
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	queueLen := func() int {
		s.b.mu.Lock()
		defer s.b.mu.Unlock()
		return len(s.b.queue)
	}
	var wg sync.WaitGroup
	filler := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Predict(context.Background(), &PredictRequest{Inputs: [][]float64{{1}}})
		}()
	}
	// Stage the fillers deterministically. If both raced into the
	// depth-1 queue at once, the second *filler* could draw the 429 and
	// leave the queue empty for the probe — so admit the second only
	// after the first is inside the runner, and probe only after the
	// second is visibly parked in the queue.
	filler()
	waitFor("first filler to enter the runner", func() bool { return slow.calls.Load() >= 1 })
	filler()
	waitFor("second filler to occupy the queue", func() bool { return queueLen() == 1 })
	start := time.Now()
	_, err := s.Predict(context.Background(), &PredictRequest{Inputs: [][]float64{{1}}})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("got %v, want ErrOverloaded", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("overload took %v, want immediate", d)
	}
	wg.Wait()
}

// TestServerClose pins shutdown: queued requests fail with ErrClosed and
// Predict after Close cannot hang.
func TestServerClose(t *testing.T) {
	slow := &fakeRunner{sample: []int{1}, classes: 2, delay: 30 * time.Millisecond}
	s := newFakeServer(t, Config{MaxBatch: 1, BatchWait: time.Microsecond, QueueDepth: 16}, slow, nil)
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Predict(context.Background(), &PredictRequest{Inputs: [][]float64{{1}}})
			errCh <- err
		}()
	}
	time.Sleep(10 * time.Millisecond)
	s.Close()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil && !errors.Is(err, ErrClosed) && !errors.Is(err, ErrDeadline) {
			t.Fatalf("got %v, want nil, ErrClosed or ErrDeadline", err)
		}
	}
}

// TestHTTPTransport drives the full HTTP surface and pins the status
// code mapping.
func TestHTTPTransport(t *testing.T) {
	r := &fakeRunner{sample: []int{2}, classes: 2}
	build := func(m *modelio.Model) (Runner, error) {
		return &fakeRunner{sample: []int{2}, classes: 2, id: 1}, nil
	}
	s := newFakeServer(t, Config{}, r, build)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(path, body string) (*http.Response, string) {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		return resp, buf.String()
	}

	resp, body := post("/v1/predict", `{"inputs":[[1,2],[3,4]]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: %d %s", resp.StatusCode, body)
	}
	var pr PredictResponse
	if err := json.Unmarshal([]byte(body), &pr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if pr.Model != "default" || len(pr.Logits) != 2 || pr.Logits[0][1] != 6 {
		t.Fatalf("unexpected response: %+v", pr)
	}

	if resp, body = post("/v1/predict", `{"inputs":[[1,2]],"bogus":1}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: %d %s", resp.StatusCode, body)
	}
	if resp, body = post("/v1/predict", `{"inputs":[[1,2,3]]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrong sample len: %d %s", resp.StatusCode, body)
	}
	if resp, body = post("/v1/predict", `{"model":"nope","inputs":[[1,2]]}`); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model: %d %s", resp.StatusCode, body)
	}

	// Upload a model, then predict on its fingerprint.
	var ckpt bytes.Buffer
	if err := modelio.Save(&ckpt, map[string]string{"k": "v"}, nil); err != nil {
		t.Fatalf("save: %v", err)
	}
	fp := modelio.Fingerprint(ckpt.Bytes())
	if resp, body = post("/v1/models", ckpt.String()); resp.StatusCode != http.StatusOK || !strings.Contains(body, fp) {
		t.Fatalf("upload: %d %s", resp.StatusCode, body)
	}
	if resp, body = post("/v1/models", "not a checkpoint"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad upload: %d %s", resp.StatusCode, body)
	}
	req := fmt.Sprintf(`{"model":%q,"inputs":[[1,2]]}`, fp)
	if resp, body = post("/v1/predict", req); resp.StatusCode != http.StatusOK || !strings.Contains(body, `"model":"`+fp+`"`) {
		t.Fatalf("predict on uploaded: %d %s", resp.StatusCode, body)
	}

	get, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatalf("GET models: %v", err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(get.Body)
	get.Body.Close()
	if get.StatusCode != http.StatusOK || !strings.Contains(buf.String(), "default") || !strings.Contains(buf.String(), fp) {
		t.Fatalf("models list: %d %s", get.StatusCode, buf.String())
	}
	if hz, err := http.Get(ts.URL + "/healthz"); err != nil || hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, hz)
	} else {
		hz.Body.Close()
	}
}

// TestServeLines pins the line-JSON transport: per-line responses in
// order, error lines for bad requests, and byte-identical encoding to
// the HTTP body for the same request.
func TestServeLines(t *testing.T) {
	r := &fakeRunner{sample: []int{2}, classes: 2}
	s := newFakeServer(t, Config{}, r, nil)
	in := strings.NewReader(`{"inputs":[[1,2]]}` + "\n" +
		"\n" + // blank lines are skipped
		`{"inputs":[[1,2,3]]}` + "\n" + // wrong sample length → error line
		`{"inputs":[[0.5,0.5]]}` + "\n")
	var out bytes.Buffer
	if err := s.ServeLinesContext(context.Background(), in, &out); err != nil {
		t.Fatalf("ServeLinesContext: %v", err)
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d output lines, want 3: %q", len(lines), out.String())
	}
	var first PredictResponse
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil || first.Logits[0][0] != 3 {
		t.Fatalf("line 0: %v %q", err, lines[0])
	}
	if !strings.Contains(lines[1], `"error"`) {
		t.Fatalf("line 1 should be an error: %q", lines[1])
	}

	// Byte-identity with the HTTP transport for the same request.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(`{"inputs":[[1,2]]}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	var httpBody bytes.Buffer
	httpBody.ReadFrom(resp.Body)
	resp.Body.Close()
	if httpBody.String() != lines[0]+"\n" {
		t.Fatalf("transport encodings differ:\nhttp:  %q\nstdio: %q", httpBody.String(), lines[0]+"\n")
	}
}

// TestModelCacheLRU pins the eviction order and refresh-on-Get.
func TestModelCacheLRU(t *testing.T) {
	c := newModelCache(2)
	a := &Model{Fingerprint: "a"}
	b := &Model{Fingerprint: "b"}
	d := &Model{Fingerprint: "d"}
	if ev := c.Add(a); ev != nil {
		t.Fatalf("evicted %v early", ev.Fingerprint)
	}
	c.Add(b)
	if got := c.Get("a"); got != a {
		t.Fatal("a should be cached")
	}
	// a was refreshed, so adding d evicts b.
	if ev := c.Add(d); ev != b {
		t.Fatalf("evicted %+v, want b", ev)
	}
	if c.Get("b") != nil {
		t.Fatal("b should be gone")
	}
	if c.Get("a") != a || c.Get("d") != d {
		t.Fatal("a and d should remain")
	}
	if fps := c.Fingerprints(); len(fps) != 2 || fps[0] != "d" {
		t.Fatalf("fingerprints %v, want [d a]", fps)
	}
}
