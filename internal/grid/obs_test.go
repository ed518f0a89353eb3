package grid

import (
	"bytes"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snnsec/internal/obs"
)

type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestProgressLoop pins the periodic progress line (counts resumed
// points, reports an ETA once a rate exists) and the heartbeat-age
// gauge refresh.
func TestProgressLoop(t *testing.T) {
	obs.Arm()
	t.Cleanup(obs.Disarm)
	var buf lockedBuffer
	co := &coordinator{
		lg:      obs.NewLogger(&buf, obs.LevelInfo),
		total:   10,
		resumed: 2,
		lastMsg: make([]atomic.Int64, 2),
	}
	co.completed = 4
	co.lastMsg[0].Store(time.Now().Add(-3 * time.Second).UnixNano())

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		co.progressLoop(10*time.Millisecond, stop)
		close(done)
	}()
	deadline := time.Now().Add(2 * time.Second)
	for !strings.Contains(buf.String(), "grid: progress") && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	<-done

	out := buf.String()
	if !strings.Contains(out, "grid: progress 6/10 points") {
		t.Errorf("progress line missing or wrong:\n%s", out)
	}
	if !strings.Contains(out, "eta ") {
		t.Errorf("progress line has no ETA:\n%s", out)
	}
	if age := metricHeartbeatAge.With("0").Value(); age < 2.5 {
		t.Errorf("heartbeat age gauge = %g, want ≥ 2.5s", age)
	}
	// Shard 1 never spoke: its gauge must stay untouched at zero rather
	// than reporting a bogus age.
	if age := metricHeartbeatAge.With("1").Value(); age != 0 {
		t.Errorf("silent shard heartbeat age = %g, want 0", age)
	}
}

// TestProgressEveryDefault pins the period Run ticks its progress line
// and heartbeat-age gauges at: a fixed 10 s, which no option changes.
func TestProgressEveryDefault(t *testing.T) {
	if progressPeriod != 10*time.Second {
		t.Fatalf("progressPeriod = %v", progressPeriod)
	}
}
