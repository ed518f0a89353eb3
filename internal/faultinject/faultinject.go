// Package faultinject is the deterministic fault-injection layer behind
// the robustness tests and the CI chaos smokes. Production code declares
// named fault points at the places failures matter (a grid worker about
// to compute a point, a checkpoint file about to be written, a serve
// forward about to dispatch); an injector — installed for the whole
// process, nil and free when unused — decides per hit whether to inject
// a delay, an error, a torn write, a panic, or a process exit.
//
// Every decision is deterministic: a rule fires on every hit of a point
// or on one exact, counted occurrence ("the 2nd checkpoint write is
// torn"), optionally only in one shard's process, so a spec alone
// names the whole fault schedule a CI chaos failure needs to replay.
//
// # Spec grammar
//
// An injector is described by a spec string, usually supplied via the
// snnsec -faults flag or the SNNSEC_FAULTS environment variable
// (subprocess grid workers inherit the latter):
//
//	spec   := rule (';' rule)*
//	rule   := point '@' occ '=' action | point '=' action
//	occ    := '*'                every hit
//	        | N                  the Nth hit only (1-based)
//	        | 's' S ':' occ      only in the process whose shard id is S
//	action := 'delay:' duration  sleep (a hung-but-alive worker)
//	        | 'error'            return an injected error
//	        | 'torn'             truncate the write (torn checkpoint file)
//	        | 'panic'            panic (a poisoned request)
//	        | 'exit'             os.Exit(3) (a crashed process)
//
// `point=action` is shorthand for `point@*=action`. Rules are checked in
// spec order; the first match wins. Example — the CI chaos schedule:
//
//	grid.worker.point@s1:1=delay:5s;grid.worker.point@s2:2=exit;grid.checkpoint.write@2=torn
//
// Shard ids are assigned by grid.ExecLauncher through SNNSEC_FAULT_SHARD
// so a rule can target one worker process of a sharded run. A grid run
// whose shards are goroutines (no -shards) has one process and one
// injector: an s<shard> rule never fires there, hit counts are shared
// by every shard, exit and panic end the whole run, and a delay wedges
// a goroutine that the coordinator can abandon but not kill.
//
// The registered fault points and the recovery each one exercises are
// enumerated in DESIGN.md ("Failure model").
package faultinject

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Environment variables the CLI and launchers use to propagate a fault
// policy into subprocesses.
const (
	// EnvSpec carries the spec string (see the package comment).
	EnvSpec = "SNNSEC_FAULTS"
	// EnvShard carries the process's shard id for shard-scoped rules.
	// grid.ExecLauncher sets it on every worker it spawns.
	EnvShard = "SNNSEC_FAULT_SHARD"
)

// Action is what an injector tells a fault point to do.
type Action int

const (
	// ActNone injects nothing.
	ActNone Action = iota
	// ActDelay sleeps for Decision.Delay — a stalled, still-alive process.
	ActDelay
	// ActError returns Decision.Err from the fault point.
	ActError
	// ActTorn truncates the write passing through the fault point.
	ActTorn
	// ActPanic panics at the fault point.
	ActPanic
	// ActExit terminates the process with exit code 3.
	ActExit
)

// Decision is the injector's verdict for one hit of one fault point.
type Decision struct {
	Action Action
	Delay  time.Duration
	Err    error
}

// rule is one parsed spec rule.
type rule struct {
	shard int // -1 = any process
	// hit is the 1-based occurrence the rule fires on; 0 = every hit.
	hit uint64

	action Action
	delay  time.Duration
}

// Injector is a parsed fault policy plus its per-point hit counters.
// One injector serves the whole process (Set/Active); Fire is safe for
// concurrent use.
type Injector struct {
	shard int
	rules map[string][]rule
	hits  map[string]*atomic.Uint64
}

// Parse builds an injector from a spec string. The shard id defaults to
// -1 (matches no shard-scoped rule).
func Parse(spec string) (*Injector, error) {
	inj := &Injector{
		shard: -1,
		rules: make(map[string][]rule),
		hits:  make(map[string]*atomic.Uint64),
	}
	for _, rs := range strings.Split(spec, ";") {
		rs = strings.TrimSpace(rs)
		if rs == "" {
			continue
		}
		point, r, err := parseRule(rs)
		if err != nil {
			return nil, fmt.Errorf("faultinject: rule %q: %w", rs, err)
		}
		inj.rules[point] = append(inj.rules[point], r)
		if inj.hits[point] == nil {
			inj.hits[point] = new(atomic.Uint64)
		}
	}
	if len(inj.rules) == 0 {
		return nil, fmt.Errorf("faultinject: empty spec")
	}
	return inj, nil
}

func parseRule(rs string) (string, rule, error) {
	lhs, actionStr, ok := strings.Cut(rs, "=")
	if !ok {
		return "", rule{}, fmt.Errorf("missing '=action'")
	}
	point, occ := lhs, "*"
	if p, o, ok := strings.Cut(lhs, "@"); ok {
		point, occ = p, o
	}
	point = strings.TrimSpace(point)
	if point == "" {
		return "", rule{}, fmt.Errorf("empty fault point name")
	}
	r := rule{shard: -1}
	occ = strings.TrimSpace(occ)
	if rest, ok := strings.CutPrefix(occ, "s"); ok {
		shardStr, occRest, ok := strings.Cut(rest, ":")
		if !ok {
			return "", rule{}, fmt.Errorf("shard scope %q needs 's<shard>:<occurrence>'", occ)
		}
		shard, err := strconv.Atoi(shardStr)
		if err != nil || shard < 0 {
			return "", rule{}, fmt.Errorf("bad shard id %q", shardStr)
		}
		r.shard = shard
		occ = strings.TrimSpace(occRest)
	}
	if occ != "*" {
		n, err := strconv.ParseUint(occ, 10, 64)
		if err != nil || n == 0 {
			return "", rule{}, fmt.Errorf("bad occurrence %q (want * or N)", occ)
		}
		r.hit = n
	}
	actionStr = strings.TrimSpace(actionStr)
	switch {
	case actionStr == "error":
		r.action = ActError
	case actionStr == "torn":
		r.action = ActTorn
	case actionStr == "panic":
		r.action = ActPanic
	case actionStr == "exit":
		r.action = ActExit
	case strings.HasPrefix(actionStr, "delay:"):
		d, err := time.ParseDuration(actionStr[len("delay:"):])
		if err != nil || d < 0 {
			return "", rule{}, fmt.Errorf("bad delay %q", actionStr)
		}
		r.action, r.delay = ActDelay, d
	default:
		return "", rule{}, fmt.Errorf("unknown action %q (want delay:<dur>, error, torn, panic, exit)", actionStr)
	}
	return point, r, nil
}

// SetShard sets the process's shard id for shard-scoped rules.
func (inj *Injector) SetShard(shard int) { inj.shard = shard }

// fire counts one hit of the point and returns the first matching rule's
// decision.
func (inj *Injector) fire(point string) Decision {
	counter := inj.hits[point]
	if counter == nil {
		return Decision{}
	}
	hit := counter.Add(1)
	for _, r := range inj.rules[point] {
		if (r.shard >= 0 && r.shard != inj.shard) || (r.hit != 0 && r.hit != hit) {
			continue
		}
		d := Decision{Action: r.action, Delay: r.delay}
		if r.action == ActError {
			d.Err = fmt.Errorf("faultinject: injected error at %s (hit %d)", point, hit)
		}
		return d
	}
	return Decision{}
}

// ---------------------------------------------------------------------------
// Process-global injector and fault-point helpers

var active atomic.Pointer[Injector]

// Set installs the process-wide injector; nil disables injection. The
// disabled fast path is one atomic load per fault point.
func Set(inj *Injector) { active.Store(inj) }

// Fire counts one hit of the named fault point and returns the decision
// (ActNone when no injector is installed). Callers that only support a
// subset of actions should use the Apply/Torn helpers instead.
func Fire(point string) Decision {
	inj := active.Load()
	if inj == nil {
		return Decision{}
	}
	return inj.fire(point)
}

// Apply fires the point and performs the in-line actions itself — sleep
// for ActDelay, panic for ActPanic, process exit for ActExit — and
// returns the injected error for ActError, nil otherwise.
func Apply(point string) error {
	d := Fire(point)
	switch d.Action {
	case ActDelay:
		time.Sleep(d.Delay)
	case ActPanic:
		panic(fmt.Sprintf("faultinject: injected panic at %s", point))
	case ActExit:
		fmt.Fprintf(os.Stderr, "faultinject: injected process exit at %s\n", point)
		os.Exit(3)
	case ActError:
		return d.Err
	}
	return nil
}

// Torn fires the point and returns how many of the n bytes about to be
// written should actually land: n normally, a truncated prefix when a
// torn write is injected.
func Torn(point string, n int) int {
	if Fire(point).Action == ActTorn && n > 0 {
		return n / 2
	}
	return n
}

// Init parses and installs an injector from the given spec (flag value)
// falling back to SNNSEC_FAULTS, with the shard id from
// SNNSEC_FAULT_SHARD. With no spec anywhere it leaves injection
// disabled and returns nil.
func Init(spec string) error {
	if spec == "" {
		spec = os.Getenv(EnvSpec)
	}
	if spec == "" {
		return nil
	}
	inj, err := Parse(spec)
	if err != nil {
		return err
	}
	if ss := os.Getenv(EnvShard); ss != "" {
		sh, err := strconv.Atoi(ss)
		if err != nil || sh < 0 {
			return fmt.Errorf("faultinject: bad %s %q", EnvShard, ss)
		}
		inj.SetShard(sh)
	}
	Set(inj)
	return nil
}
