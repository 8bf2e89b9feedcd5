package obs

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// Structured logging for the daemons. Both commands (earthd, earthchaos) and
// internal/server log through *slog.Logger; this file is the one place the
// handler wiring lives so `-log-format`/`-log-level` mean the same thing
// everywhere.

// Discard returns a logger that drops everything — the default for an
// unconfigured Server, so library users pay for logging only when they ask
// for it.
func Discard() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// NewLogger builds a leveled slog logger writing to w. format is "text"
// (logfmt-style, the default) or "json" (one JSON object per line); level is
// "debug", "info", "warn", or "error".
func NewLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "", "info":
		lv = slog.LevelInfo
	case "debug":
		lv = slog.LevelDebug
	case "warn", "warning":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown log level %q (want debug|info|warn|error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(format) {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("unknown log format %q (want text|json)", format)
	}
}
