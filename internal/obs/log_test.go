package obs

import (
	"strings"
	"testing"
)

func TestParseLevel(t *testing.T) {
	cases := []struct {
		in   string
		want Level
		err  bool
	}{
		{"debug", LevelDebug, false},
		{"info", LevelInfo, false},
		{"", LevelInfo, false},
		{" WARN ", LevelWarn, false},
		{"warning", LevelWarn, false},
		{"error", LevelError, false},
		{"loud", LevelInfo, true},
	}
	for _, c := range cases {
		got, err := ParseLevel(c.in)
		if (err != nil) != c.err || got != c.want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v, err=%v", c.in, got, err, c.want, c.err)
		}
	}
}

func TestLoggerFiltersByLevel(t *testing.T) {
	var sb strings.Builder
	lg := NewLogger(&sb, LevelWarn)
	lg.Logf(LevelDebug, "d")
	lg.Infof("i")
	lg.Warnf("w %d", 1)
	lg.Logf(LevelError, "e\n") // trailing newline not doubled
	if got, want := sb.String(), "w 1\ne\n"; got != want {
		t.Fatalf("logged %q, want %q", got, want)
	}
	if lg.Enabled(LevelInfo) || !lg.Enabled(LevelError) {
		t.Fatal("Enabled disagrees with filtering")
	}
}

func TestLoggerNilSafety(t *testing.T) {
	var lg *Logger
	lg.Infof("dropped") // must not panic
	if lg.Enabled(LevelError) {
		t.Fatal("nil logger reports enabled")
	}
	discard := NewLogger(nil, LevelDebug)
	discard.Infof("dropped") // nil writer must not panic
	if discard.Enabled(LevelDebug) {
		t.Fatal("nil-writer logger reports enabled")
	}
}

func TestLevelString(t *testing.T) {
	for lv, want := range map[Level]string{
		LevelDebug: "debug", LevelInfo: "info", LevelWarn: "warn", LevelError: "error",
	} {
		if lv.String() != want {
			t.Errorf("Level(%d).String() = %q, want %q", lv, lv.String(), want)
		}
	}
}
