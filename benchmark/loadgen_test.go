package main

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A closed loop never has more than one request per caller in flight and
// does not let one stalled caller hold back the others: the fake handler
// stalls caller 0's third request until every other caller is done — the
// others finish their last request only once that stall has begun — and
// caller 0 must not have sent a fourth by then.
func TestClosedLoopAgainstStallingHandler(t *testing.T) {
	const callers, per, stalledAt = 4, 6, 2
	var mu sync.Mutex
	seen := make([]int, callers)     // requests received per caller
	inFlight := make([]int, callers) // requests being served per caller
	var othersDone atomic.Int64
	stalled := make(chan struct{})
	released := make(chan struct{})
	var seenAtRelease int

	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		var c, i int
		if _, err := fmt.Sscanf(string(b), "%d %d", &c, &i); err != nil {
			t.Errorf("body %q: %v", b, err)
			return
		}
		mu.Lock()
		seen[c]++
		inFlight[c]++
		if inFlight[c] > 1 {
			t.Errorf("caller %d has %d requests in flight", c, inFlight[c])
		}
		mu.Unlock()
		switch {
		case c == 0 && i == stalledAt:
			close(stalled)
			<-released
		case c != 0 && i == per-1:
			<-stalled
		}
		mu.Lock()
		inFlight[c]--
		mu.Unlock()
		if c != 0 && othersDone.Add(1) == (callers-1)*per {
			mu.Lock()
			seenAtRelease = seen[0]
			mu.Unlock()
			close(released)
		}
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok")
	})

	var replies atomic.Int64
	waits := make([]time.Duration, per) // caller 0's
	closedLoop(h, "/x", callers, per,
		func(c, i int) []byte { return []byte(fmt.Sprintf("%d %d", c, i)) },
		func(c, i int, resp *memResponse, waited time.Duration) {
			if resp.status != http.StatusOK || resp.body.String() != "ok" {
				t.Errorf("caller %d request %d: status %d body %q", c, i, resp.status, resp.body.String())
			}
			if c == 0 {
				waits[i] = waited
			}
			replies.Add(1)
		})

	if got := replies.Load(); got != callers*per {
		t.Errorf("%d replies, want %d", got, callers*per)
	}
	if seenAtRelease != stalledAt+1 {
		t.Errorf("caller 0 had sent %d requests while its request %d was stalled, want %d", seenAtRelease, stalledAt, stalledAt+1)
	}
	for i, w := range waits {
		if w <= 0 {
			t.Errorf("caller 0's request %d reports a wait of %v", i, w)
		}
	}
}

// An open loop keeps to its schedule whatever comes back: every request
// is sent, refusals are counted and wait +Inf.
func TestOpenLoopCountsRefusals(t *testing.T) {
	var n atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)%4 == 0 {
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		io.WriteString(w, "ok")
	})
	rep := openLoop(h, "/x", 2000, 50*time.Millisecond, func(int) []byte { return nil })
	if rep.sent != 100 || rep.ok != 75 || rep.rejected != 25 {
		t.Errorf("sent %d ok %d rejected %d, want 100 75 25", rep.sent, rep.ok, rep.rejected)
	}
	inf := 0
	for _, l := range rep.latencyMS {
		if math.IsInf(l, 1) {
			inf++
		} else if l < 0 {
			t.Errorf("negative latency %v", l)
		}
	}
	if inf != rep.rejected {
		t.Errorf("%d requests wait +Inf, want the %d refused ones", inf, rep.rejected)
	}
}
