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
		"point@~0.5=error",  // no probabilistic occurrences
		"point@3+=error",    // no open-range occurrences
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
	inj, err := Parse("p@2=error; q@*=torn; r=panic")
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
	for hit := 1; hit <= 3; hit++ {
		if d := inj.fire("q"); d.Action != ActTorn {
			t.Errorf("q hit %d: action %v, want ActTorn (every hit)", hit, d.Action)
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

func TestInitFromEnv(t *testing.T) {
	t.Setenv(EnvSpec, "p@1=error")
	t.Setenv(EnvShard, "2")
	defer Set(nil)
	if err := Init(""); err != nil {
		t.Fatal(err)
	}
	inj := active.Load()
	if inj == nil {
		t.Fatal("Init installed nothing")
	}
	if len(inj.rules["p"]) != 1 || inj.shard != 2 {
		t.Fatalf("env not honoured: rules=%v shard=%d", inj.rules, inj.shard)
	}
	// The flag value wins over the environment.
	if err := Init("q@1=torn"); err != nil {
		t.Fatal(err)
	}
	inj = active.Load()
	if len(inj.rules["q"]) != 1 || len(inj.rules["p"]) != 0 {
		t.Fatalf("flag spec not honoured: rules=%v", inj.rules)
	}
	// A bad env value is an error, not silently ignored.
	t.Setenv(EnvShard, "x")
	if err := Init("q@1=torn"); err == nil {
		t.Error("bad shard env accepted")
	}
	// No spec anywhere: injection stays disabled, no error.
	t.Setenv(EnvSpec, "")
	t.Setenv(EnvShard, "0")
	Set(nil)
	if err := Init(""); err != nil || active.Load() != nil {
		t.Errorf("empty Init: err=%v enabled=%v", err, active.Load() != nil)
	}
}
