// Package olog is the fleet's structured logging layer: a thin,
// opinionated wrapper over log/slog shared by every lognic binary.
//
// All binaries take the same two flags (-log-level, -log-format), emit
// either logfmt-style text (human terminals) or one-JSON-object-per-line
// (log shippers), and tag request-scoped records with a fixed attribute
// vocabulary — request_id, job_id, trace_id, endpoint, tenant — so one
// grep or one jq filter follows a request across lognic-storm,
// lognic-serve and the job runner.
package olog

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
)

// Attribute keys shared by every binary. Using the constants (not string
// literals) keeps the cross-process log schema greppable and consistent.
const (
	KeyRequestID = "request_id"
	KeyJobID     = "job_id"
	KeyTraceID   = "trace_id"
	KeyEndpoint  = "endpoint"
	KeyTenant    = "tenant"
	KeyComponent = "component"
)

// Options selects level and output encoding. The zero value means
// info-level text.
type Options struct {
	// Level is one of debug, info, warn, error.
	Level string
	// Format is "text" (logfmt-ish, for terminals) or "json" (one object
	// per line, for shippers).
	Format string
}

// RegisterFlags installs -log-level and -log-format on fs and returns
// the Options they populate. Every lognic binary calls this so the
// flags are spelled identically fleet-wide.
func RegisterFlags(fs *flag.FlagSet) *Options {
	o := &Options{}
	fs.StringVar(&o.Level, "log-level", "info", "log level: debug, info, warn, error")
	fs.StringVar(&o.Format, "log-format", "text", "log encoding: text or json")
	return o
}

// Logger builds a slog.Logger writing to w per the options. Unknown
// levels or formats are errors — binaries surface them through their
// usual flag-error path instead of silently logging at the wrong level.
func (o *Options) Logger(w io.Writer) (*slog.Logger, error) {
	level, err := ParseLevel(o.Level)
	if err != nil {
		return nil, err
	}
	opts := &slog.HandlerOptions{Level: level}
	switch strings.ToLower(strings.TrimSpace(o.Format)) {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("olog: unknown log format %q (want text or json)", o.Format)
	}
}

// ParseLevel maps the flag spelling to a slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "info":
		return slog.LevelInfo, nil
	case "debug":
		return slog.LevelDebug, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("olog: unknown log level %q (want debug, info, warn or error)", s)
	}
}

// Discard returns a logger that drops everything — the default wherever
// a logger is optional, so call sites never nil-check.
func Discard() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(127)}))
}

// Fail is the single fatal-path helper for binaries using the
// run(...) int pattern: log the error as a structured record and return
// the process exit code. Keeping exit itself out makes mains testable.
func Fail(l *slog.Logger, msg string, args ...any) int {
	l.Error(msg, args...)
	return 1
}

// Fatal logs and exits for call sites with no exit-code plumbing.
func Fatal(l *slog.Logger, msg string, args ...any) {
	l.Error(msg, args...)
	os.Exit(1)
}
