package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"snnsec/internal/obs"
)

// syncBuffer is a goroutine-safe trace sink.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestTraceRecords(t *testing.T) {
	var sink syncBuffer
	r := &fakeRunner{sample: []int{4}, classes: 3}
	s := newFakeServer(t, Config{TraceWriter: &sink}, r, nil)
	req := &PredictRequest{Inputs: [][]float64{{1, 2, 3, 4}, {5, 6, 7, 8}}}
	if _, err := s.Predict(context.Background(), req); err != nil {
		t.Fatalf("Predict: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(sink.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("got %d trace lines, want 1: %q", len(lines), sink.String())
	}
	var rec TraceRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("trace line not JSON: %v\n%s", err, lines[0])
	}
	if rec.ID == 0 || rec.Model != "default" || rec.N != 2 {
		t.Errorf("trace identity wrong: %+v", rec)
	}
	if rec.EnqueueUS == 0 || rec.TotalNS <= 0 || rec.ForwardNS <= 0 || rec.TotalNS < rec.ForwardNS {
		t.Errorf("trace timings inconsistent: %+v", rec)
	}
	if rec.BatchN < 2 || rec.BatchCalls < 1 || rec.Err != "" {
		t.Errorf("trace batch fields wrong: %+v", rec)
	}
}

func TestTraceDisabledWritesNothing(t *testing.T) {
	r := &fakeRunner{sample: []int{2}, classes: 2}
	s := newFakeServer(t, Config{}, r, nil)
	if s.trace != nil {
		t.Fatal("trace log allocated without a TraceWriter")
	}
	if _, err := s.Predict(context.Background(), &PredictRequest{Inputs: [][]float64{{1, 2}}}); err != nil {
		t.Fatalf("Predict: %v", err)
	}
}

func TestHealthzEnriched(t *testing.T) {
	r := &fakeRunner{sample: []int{2}, classes: 2}
	s := newFakeServer(t, Config{}, r, nil)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	get := func() (int, map[string]any) {
		resp, err := srv.Client().Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatalf("GET /healthz: %v", err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("healthz body: %v", err)
		}
		return resp.StatusCode, body
	}

	code, body := get()
	if code != 200 || body["ok"] != true {
		t.Fatalf("healthz = %d %v", code, body)
	}
	for _, k := range []string{"queue_depth", "models_cached", "version", "go", "arch"} {
		if _, ok := body[k]; !ok {
			t.Errorf("healthz missing %q: %v", k, body)
		}
	}
	if body["queue_depth"] != float64(0) || body["models_cached"] != float64(0) {
		t.Errorf("idle healthz occupancy wrong: %v", body)
	}

	s.BeginDrain()
	code, body = get()
	if code != 503 || body["ok"] != false || body["draining"] != true {
		t.Fatalf("draining healthz = %d %v", code, body)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	obs.Arm()
	t.Cleanup(obs.Disarm)
	r := &fakeRunner{sample: []int{2}, classes: 2}
	s := newFakeServer(t, Config{}, r, nil)
	if _, err := s.Predict(context.Background(), &PredictRequest{Inputs: [][]float64{{1, 2}}}); err != nil {
		t.Fatalf("Predict: %v", err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	// One scrape must cover every layer's families: package-init
	// registration makes grid/stream series visible (zero-valued)
	// from the serve binary.
	for _, family := range []string{
		"snnsec_serve_queue_depth",
		"snnsec_serve_requests_total",
		"snnsec_serve_forward_seconds",
		"snnsec_serve_batch_size",
		"snnsec_serve_coalesced_calls",
		"snnsec_serve_rejected_total",
		"snnsec_serve_deadline_withdrawals_total",
		"snnsec_serve_forward_panics_total",
		"snnsec_build_info",
	} {
		if !strings.Contains(out, "# TYPE "+family+" ") {
			t.Errorf("/metrics missing family %s", family)
		}
	}
	if !strings.Contains(out, `snnsec_serve_requests_total{model="default",outcome="ok"} 1`) {
		t.Errorf("per-model request counter not incremented:\n%s", out)
	}
}

func TestPprofMountOptIn(t *testing.T) {
	r := &fakeRunner{sample: []int{2}, classes: 2}
	off := newFakeServer(t, Config{}, r, nil)
	on := newFakeServer(t, Config{EnablePprof: true}, r, nil)

	srvOff := httptest.NewServer(off.Handler())
	defer srvOff.Close()
	srvOn := httptest.NewServer(on.Handler())
	defer srvOn.Close()

	if resp, err := srvOff.Client().Get(srvOff.URL + "/debug/pprof/"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != 404 {
		t.Errorf("pprof without flag = %d, want 404", resp.StatusCode)
	}
	if resp, err := srvOn.Client().Get(srvOn.URL + "/debug/pprof/"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != 200 {
		t.Errorf("pprof with flag = %d, want 200", resp.StatusCode)
	}
}

// TestDeadlineWithdrawalCounted pins that a request withdrawn on
// deadline increments the withdrawal counter.
func TestDeadlineWithdrawalCounted(t *testing.T) {
	obs.Arm()
	t.Cleanup(obs.Disarm)
	before := metricDeadlineWithdrawals.Value()
	r := &fakeRunner{sample: []int{2}, classes: 2, delay: 50 * time.Millisecond}
	s := newFakeServer(t, Config{}, r, nil)
	req := &PredictRequest{Inputs: [][]float64{{1, 2}}, DeadlineMS: 5}
	if _, err := s.Predict(context.Background(), req); err == nil {
		t.Fatal("expected deadline error")
	}
	if metricDeadlineWithdrawals.Value() <= before {
		t.Error("deadline withdrawal not counted")
	}
}
