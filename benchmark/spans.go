package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// its own call sites (nothing inside the program emits spans yet). Times
// are nanoseconds since the log was opened.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Lap    int    `json:"lap"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanLog keeps spans in memory until the run ends. It is safe for the
// concurrent grid workers of the traced sweep lap; at a few hundred
// spans per lap the mutex is nowhere near a timed path's cost.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its id (ids start at 1).
func (l *spanLog) begin(name string, parent, lap int) int {
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Lap: lap, Start: now})
	return len(l.spans)
}

// end closes a span and returns its duration.
func (l *spanLog) end(id int) time.Duration {
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].End = now
	return l.spans[id-1].dur()
}

// time wraps one call in a span.
func (l *spanLog) time(name string, parent, lap int, f func()) time.Duration {
	id := l.begin(name, parent, lap)
	f()
	return l.end(id)
}

// sum adds up the durations of every span called name in one lap.
func (l *spanLog) sum(name string, lap int) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	var d time.Duration
	for _, s := range l.spans {
		if s.Name == name && s.Lap == lap {
			d += s.dur()
		}
	}
	return d
}

// selfTimes returns, per span name, the time spent in spans of that name
// and in none of their children: a span's duration minus the part of its
// interval its child spans cover. Children that overlap one another (the
// sweep lap's concurrent grid workers) are merged first, so covered time
// is counted once.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(children[s.ID], s.Start, s.End)
	}
	return out
}

// covered is the length of the union of the spans' intervals clipped to
// [lo, hi].
func covered(spans []span, lo, hi int64) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total int64
	end := lo
	for _, c := range spans {
		s, e := max(c.Start, end), min(c.End, hi)
		if e > s {
			total += e - s
			end = e
		}
	}
	return time.Duration(total)
}

// printSelfTimes lists, per span name, the calls made and the self time
// summed over the whole run, longest first.
func (l *spanLog) printSelfTimes(w io.Writer) {
	l.mu.Lock()
	self := selfTimes(l.spans)
	calls := make(map[string]int)
	for _, s := range l.spans {
		calls[s.Name]++
	}
	l.mu.Unlock()
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintln(w, "self time by span (span − the part its children cover), whole traced run:")
	for _, name := range names {
		fmt.Fprintf(w, "  %10.3f s  %6d calls  %s\n", self[name].Seconds(), calls[name], name)
	}
}

// writeJSONL writes one span per line under dir, creating it if needed.
func (l *spanLog) writeJSONL(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
