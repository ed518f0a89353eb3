// Package faultinject is the deterministic fault-injection layer behind
// the robustness tests and the CI chaos smokes. Production code declares
// named fault points at the places failures matter (a grid worker about
// to compute a point, a checkpoint file about to be written, a serve
// forward about to dispatch); an injector — installed for the whole
// process, nil and free when unused — decides per hit whether to inject
// a delay, an error, a torn write, a panic, or a process exit.
//
// Every decision is deterministic. Hit-scoped rules fire on exact,
// counted occurrences of a point ("the 2nd checkpoint write is torn"),
// and probabilistic rules hash (seed, point, hit) so a fixed seed — by
// default the run seed, so a CI chaos failure names everything needed to
// replay it — reproduces the exact same fault schedule.
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
//	        | N '+'              the Nth and every later hit
//	        | '~' p              each hit independently with probability p
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
// so a rule can target one worker process of a sharded run; in-process
// tests, which share one injector, scope by hit count instead.
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
	// EnvSeed carries an explicit seed for probabilistic rules; without
	// it the seed is adopted from the run seed via Reseed.
	EnvSeed = "SNNSEC_FAULT_SEED"
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
	// occurrence selection: every, an exact hit, an open range, or a
	// seeded per-hit probability.
	every   bool
	hit     uint64
	from    bool
	prob    float64
	probSet bool

	action Action
	delay  time.Duration
}

// Injector is a parsed fault policy plus its per-point hit counters.
// One injector serves the whole process (Set/Active); Fire is safe for
// concurrent use.
type Injector struct {
	seed   atomic.Uint64
	seeded atomic.Bool
	shard  int
	rules  map[string][]rule
	hits   map[string]*atomic.Uint64
}

// Parse builds an injector from a spec string. The seed starts unset
// (probabilistic rules then use seed 0 until Reseed or SetSeed), and the
// shard id defaults to -1 (matches no shard-scoped rule).
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
	switch {
	case occ == "*":
		r.every = true
	case strings.HasPrefix(occ, "~"):
		p, err := strconv.ParseFloat(occ[1:], 64)
		if err != nil || p < 0 || p > 1 {
			return "", rule{}, fmt.Errorf("bad probability %q (want 0..1)", occ)
		}
		r.prob, r.probSet = p, true
	default:
		ns, from := strings.CutSuffix(occ, "+")
		n, err := strconv.ParseUint(ns, 10, 64)
		if err != nil || n == 0 {
			return "", rule{}, fmt.Errorf("bad occurrence %q (want *, N, N+, ~p)", occ)
		}
		r.hit, r.from = n, from
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

// SetSeed pins the seed for probabilistic rules. A seed set here (from
// -fault-seed or SNNSEC_FAULT_SEED) wins over a later Reseed.
func (inj *Injector) SetSeed(seed uint64) {
	inj.seed.Store(seed)
	inj.seeded.Store(true)
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
		if r.shard >= 0 && r.shard != inj.shard {
			continue
		}
		switch {
		case r.every:
		case r.probSet:
			if hitUniform(inj.seed.Load(), point, hit) >= r.prob {
				continue
			}
		case r.from:
			if hit < r.hit {
				continue
			}
		default:
			if hit != r.hit {
				continue
			}
		}
		d := Decision{Action: r.action, Delay: r.delay}
		if r.action == ActError {
			d.Err = fmt.Errorf("faultinject: injected error at %s (hit %d)", point, hit)
		}
		return d
	}
	return Decision{}
}

// hitUniform maps (seed, point, hit) to a uniform float64 in [0, 1) via
// an FNV-mixed splitmix64 step — deterministic across runs and builds.
func hitUniform(seed uint64, point string, hit uint64) float64 {
	h := seed ^ 0x9e3779b97f4a7c15
	for i := 0; i < len(point); i++ {
		h = (h ^ uint64(point[i])) * 0x100000001b3
	}
	h ^= hit * 0xbf58476d1ce4e5b9
	// splitmix64 finalizer.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return float64(h>>11) / float64(1<<53)
}

// ---------------------------------------------------------------------------
// Process-global injector and fault-point helpers

var active atomic.Pointer[Injector]

// Set installs the process-wide injector; nil disables injection. The
// disabled fast path is one atomic load per fault point.
func Set(inj *Injector) { active.Store(inj) }

// Reseed adopts seed for probabilistic rules unless a seed was already
// set explicitly (SetSeed / SNNSEC_FAULT_SEED). The grid coordinator and
// workers call it with the run seed, so a chaos schedule reproduces from
// the numbers already in the job spec.
func Reseed(seed uint64) {
	if inj := active.Load(); inj != nil && !inj.seeded.Load() {
		inj.seed.Store(seed)
	}
}

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
// falling back to SNNSEC_FAULTS, with the seed from the flag (when
// seedSet) or SNNSEC_FAULT_SEED, and the shard id from
// SNNSEC_FAULT_SHARD. With no spec anywhere it leaves injection
// disabled and returns nil.
func Init(spec string, seed uint64, seedSet bool) error {
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
	if !seedSet {
		if es := os.Getenv(EnvSeed); es != "" {
			v, err := strconv.ParseUint(es, 10, 64)
			if err != nil {
				return fmt.Errorf("faultinject: bad %s %q: %v", EnvSeed, es, err)
			}
			seed, seedSet = v, true
		}
	}
	if seedSet {
		inj.SetSeed(seed)
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
