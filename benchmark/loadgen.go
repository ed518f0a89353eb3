package main

import (
	"bytes"
	"math"
	"net/http"
	"sync"
	"time"
)

// memResponse is the in-memory http.ResponseWriter requests are answered
// into: the benchmark pushes requests through the server's Handler
// directly, so no socket, no kernel and no second process is in a timed
// path.
type memResponse struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func newMemResponse() *memResponse { return &memResponse{hdr: make(http.Header)} }

func (m *memResponse) Header() http.Header { return m.hdr }
func (m *memResponse) WriteHeader(s int)   { m.status = s }
func (m *memResponse) Write(p []byte) (int, error) {
	if m.status == 0 {
		m.status = http.StatusOK
	}
	return m.body.Write(p)
}

func (m *memResponse) reset() {
	clear(m.hdr)
	m.status = 0
	m.body.Reset()
}

// post pushes one POST through h and returns how long the caller waited.
// resp is reset first, so a caller may keep one per goroutine.
func post(h http.Handler, path string, body []byte, resp *memResponse) time.Duration {
	resp.reset()
	req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		panic(err) // the method and path are constants of the benchmark
	}
	t0 := time.Now()
	h.ServeHTTP(resp, req)
	return time.Since(t0)
}

// closedLoop drives h with `callers` concurrent callers that each send
// perCaller requests, the next only after the previous reply: a slow
// server receives less load, and never more than `callers` requests are
// in flight. body(c, i) picks caller c's i-th request; onReply runs on
// the caller's goroutine after each reply (resp is the caller's own and
// is reused for its next request).
func closedLoop(h http.Handler, path string, callers, perCaller int,
	body func(c, i int) []byte, onReply func(c, i int, resp *memResponse, waited time.Duration)) {
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			resp := newMemResponse()
			for i := 0; i < perCaller; i++ {
				waited := post(h, path, body(c, i), resp)
				onReply(c, i, resp, waited)
			}
		}(c)
	}
	wg.Wait()
}

// openLoopReport is one rung of the open-loop rate ladder.
type openLoopReport struct {
	sent, ok, rejected int
	// latencyMS is each request's wait measured from the moment it was
	// due, so a stall's cost to the requests queued behind it is
	// counted; a reply other than 200 waits +Inf.
	latencyMS []float64
	// lateMaxMS is how far behind its schedule the generator ever ran.
	lateMaxMS float64
}

// openLoop sends on a fixed schedule — request i is due at i/rate —
// whatever the server does, each request on its own goroutine, for dur;
// it returns after every request has been answered.
func openLoop(h http.Handler, path string, rate float64, dur time.Duration, body func(i int) []byte) openLoopReport {
	n := int(rate * dur.Seconds())
	rep := openLoopReport{latencyMS: make([]float64, n)}
	status := make([]int, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		if late := float64(time.Since(due).Nanoseconds()) / 1e6; late > rep.lateMaxMS {
			rep.lateMaxMS = late
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			resp := newMemResponse()
			post(h, path, body(i), resp)
			rep.latencyMS[i] = float64(time.Since(due).Nanoseconds()) / 1e6
			status[i] = resp.status
		}(i, due)
	}
	wg.Wait()
	rep.sent = n
	for i, s := range status {
		switch s {
		case http.StatusOK:
			rep.ok++
		case http.StatusTooManyRequests:
			rep.rejected++
			rep.latencyMS[i] = math.Inf(1)
		default:
			rep.latencyMS[i] = math.Inf(1)
		}
	}
	return rep
}
