package faultinject

import (
	"strings"
	"testing"
	"time"
)

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",                  // empty spec
		";;",                // only empty rules
		"point",             // no action
		"point@1",           // no action
		"@1=error",          // no point name
		"point@0=error",     // hits are 1-based
		"point@x=error",     // bad occurrence
		"point@~1.5=error",  // probability out of range
		"point@~x=error",    // bad probability
		"point@s:1=error",   // missing shard id
		"point@s-1:1=error", // negative shard
		"point@s1=error",    // shard scope without occurrence
		"point@1=explode",   // unknown action
		"point@1=delay:xx",  // bad duration
		"point@1=delay:-1s", // negative delay
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}

func TestHitScopedRules(t *testing.T) {
	inj, err := Parse("p@2=error; q@3+=torn; r=panic")
	if err != nil {
		t.Fatal(err)
	}
	for hit := 1; hit <= 4; hit++ {
		d := inj.fire("p")
		want := ActNone
		if hit == 2 {
			want = ActError
		}
		if d.Action != want {
			t.Errorf("p hit %d: action %v, want %v", hit, d.Action, want)
		}
		if hit == 2 && d.Err == nil {
			t.Error("injected error decision carries no error")
		}
	}
	for hit := 1; hit <= 5; hit++ {
		want := ActNone
		if hit >= 3 {
			want = ActTorn
		}
		if d := inj.fire("q"); d.Action != want {
			t.Errorf("q hit %d: action %v, want %v", hit, d.Action, want)
		}
	}
	for hit := 1; hit <= 3; hit++ {
		if d := inj.fire("r"); d.Action != ActPanic {
			t.Errorf("r hit %d: action %v, want ActPanic (every hit)", hit, d.Action)
		}
	}
	// Unregistered points never fire.
	if d := inj.fire("unknown"); d.Action != ActNone {
		t.Errorf("unknown point fired %v", d.Action)
	}
}

func TestDelayRule(t *testing.T) {
	inj, err := Parse("p@1=delay:250ms")
	if err != nil {
		t.Fatal(err)
	}
	d := inj.fire("p")
	if d.Action != ActDelay || d.Delay != 250*time.Millisecond {
		t.Fatalf("got %+v, want 250ms delay", d)
	}
}

func TestShardScope(t *testing.T) {
	inj, err := Parse("p@s1:1=exit")
	if err != nil {
		t.Fatal(err)
	}
	// Default shard is -1: the rule never matches.
	if d := inj.fire("p"); d.Action != ActNone {
		t.Fatalf("unscoped process matched shard rule: %v", d.Action)
	}
	inj2, _ := Parse("p@s1:1=exit")
	inj2.SetShard(1)
	if d := inj2.fire("p"); d.Action != ActExit {
		t.Fatalf("shard 1 hit 1: %v, want ActExit", d.Action)
	}
	if d := inj2.fire("p"); d.Action != ActNone {
		t.Fatalf("shard 1 hit 2: %v, want ActNone", d.Action)
	}
}

func TestProbabilisticRulesDeterministic(t *testing.T) {
	schedule := func(seed uint64) []bool {
		inj, err := Parse("p@~0.5=error")
		if err != nil {
			t.Fatal(err)
		}
		inj.SetSeed(seed)
		out := make([]bool, 64)
		for i := range out {
			out[i] = inj.fire("p").Action == ActError
		}
		return out
	}
	a, b := schedule(7), schedule(7)
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different schedules at hit %d", i+1)
		}
		if a[i] {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("p=0.5 fired %d/%d hits — not probabilistic", fired, len(a))
	}
	c := schedule(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical schedules")
	}
}

func TestFirstMatchingRuleWins(t *testing.T) {
	inj, err := Parse("p@1=error;p=torn")
	if err != nil {
		t.Fatal(err)
	}
	if d := inj.fire("p"); d.Action != ActError {
		t.Fatalf("hit 1: %v, want the earlier exact rule", d.Action)
	}
	if d := inj.fire("p"); d.Action != ActTorn {
		t.Fatalf("hit 2: %v, want the catch-all rule", d.Action)
	}
}

func TestGlobalHelpers(t *testing.T) {
	// Disabled: every helper is a no-op.
	Set(nil)
	if active.Load() != nil {
		t.Fatal("Enabled with nil injector")
	}
	if err := Apply("p"); err != nil {
		t.Fatalf("Apply with no injector: %v", err)
	}
	if n := Torn("p", 10); n != 10 {
		t.Fatalf("Torn with no injector truncated to %d", n)
	}

	inj, err := Parse("p@1=error;w@1=torn;x@1=panic")
	if err != nil {
		t.Fatal(err)
	}
	Set(inj)
	defer Set(nil)
	if active.Load() == nil {
		t.Fatal("not enabled after Set")
	}
	if err := Apply("p"); err == nil || !strings.Contains(err.Error(), "injected error") {
		t.Fatalf("Apply: %v, want injected error", err)
	}
	if err := Apply("p"); err != nil {
		t.Fatalf("Apply hit 2: %v, want nil", err)
	}
	if n := Torn("w", 10); n != 5 {
		t.Fatalf("torn write landed %d of 10 bytes, want 5", n)
	}
	if n := Torn("w", 10); n != 10 {
		t.Fatalf("second write truncated to %d", n)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ActPanic did not panic")
			}
		}()
		Apply("x")
	}()
}

func TestReseed(t *testing.T) {
	inj, err := Parse("p@~0.5=error")
	if err != nil {
		t.Fatal(err)
	}
	Set(inj)
	defer Set(nil)
	Reseed(42)
	if got := inj.seed.Load(); got != 42 {
		t.Fatalf("Reseed on unseeded injector: seed %d, want 42", got)
	}
	inj.SetSeed(7)
	Reseed(99)
	if got := inj.seed.Load(); got != 7 {
		t.Fatalf("Reseed overrode an explicit seed: %d", got)
	}
}

func TestInitFromEnv(t *testing.T) {
	t.Setenv(EnvSpec, "p@1=error")
	t.Setenv(EnvSeed, "11")
	t.Setenv(EnvShard, "2")
	defer Set(nil)
	if err := Init("", 0, false); err != nil {
		t.Fatal(err)
	}
	inj := active.Load()
	if inj == nil {
		t.Fatal("Init installed nothing")
	}
	if !inj.seeded.Load() || inj.seed.Load() != 11 || inj.shard != 2 {
		t.Fatalf("env not honoured: seeded=%v seed=%d shard=%d", inj.seeded.Load(), inj.seed.Load(), inj.shard)
	}
	// Flag values win over the environment.
	if err := Init("q@1=torn", 5, true); err != nil {
		t.Fatal(err)
	}
	inj = active.Load()
	if inj.seed.Load() != 5 || len(inj.rules["q"]) != 1 {
		t.Fatalf("flag spec/seed not honoured: seed=%d rules=%v", inj.seed.Load(), inj.rules)
	}
	// Bad env values are errors, not silently ignored.
	t.Setenv(EnvShard, "x")
	if err := Init("q@1=torn", 5, true); err == nil {
		t.Error("bad shard env accepted")
	}
	t.Setenv(EnvShard, "0")
	t.Setenv(EnvSeed, "nope")
	if err := Init("q@1=torn", 0, false); err == nil {
		t.Error("bad seed env accepted")
	}
	// No spec anywhere: injection stays disabled, no error.
	t.Setenv(EnvSpec, "")
	t.Setenv(EnvSeed, "")
	Set(nil)
	if err := Init("", 0, false); err != nil || active.Load() != nil {
		t.Errorf("empty Init: err=%v enabled=%v", err, active.Load() != nil)
	}
}
