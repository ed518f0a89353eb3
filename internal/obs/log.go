package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
)

// Level orders log severities. The zero value is LevelDebug; the CLI
// default is LevelInfo, which keeps the pre-existing progress output
// exactly as it was — levels only filter, they do not reformat.
type Level int32

const (
	// LevelDebug is chatty per-item detail (per-point assignments,
	// per-session accounting).
	LevelDebug Level = iota
	// LevelInfo is the default operational narrative (progress lines,
	// startup banners) — everything the commands printed before levels
	// existed.
	LevelInfo
	// LevelWarn is degraded-but-handled conditions (retries, stalls,
	// quarantines, failed sessions).
	LevelWarn
	// LevelError is failures the command surfaces to the caller.
	LevelError
)

// String returns the level's flag spelling.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	}
	return fmt.Sprintf("level(%d)", int32(l))
}

// ParseLevel parses a -log-level flag value.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug, nil
	case "info", "":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	}
	return LevelInfo, fmt.Errorf("obs: unknown log level %q (want debug, info, warn or error)", s)
}

// Logger is a minimal leveled logger: messages at or above the minimum
// level are written verbatim (a trailing newline is added when the
// format lacks one), below it they are dropped. A nil *Logger and a nil
// writer both discard everything, so callers never need a nil check.
type Logger struct {
	mu  sync.Mutex
	w   io.Writer
	min Level
}

// NewLogger returns a logger writing messages at or above min to w.
// A nil w discards all output.
func NewLogger(w io.Writer, min Level) *Logger { return &Logger{w: w, min: min} }

// Enabled reports whether messages at lv would be written.
func (l *Logger) Enabled(lv Level) bool {
	return l != nil && l.w != nil && lv >= l.min
}

// Logf writes one message at the given level.
func (l *Logger) Logf(lv Level, format string, args ...any) {
	if !l.Enabled(lv) {
		return
	}
	msg := fmt.Sprintf(format, args...)
	if !strings.HasSuffix(msg, "\n") {
		msg += "\n"
	}
	l.mu.Lock()
	io.WriteString(l.w, msg)
	l.mu.Unlock()
}

// Infof logs at LevelInfo.
func (l *Logger) Infof(format string, args ...any) { l.Logf(LevelInfo, format, args...) }

// Warnf logs at LevelWarn.
func (l *Logger) Warnf(format string, args ...any) { l.Logf(LevelWarn, format, args...) }
