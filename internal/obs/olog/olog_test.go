package olog

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"log/slog"
	"strings"
	"testing"
)

func TestRegisterFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	o := RegisterFlags(fs)
	if err := fs.Parse([]string{"-log-level", "debug", "-log-format", "json"}); err != nil {
		t.Fatal(err)
	}
	if o.Level != "debug" || o.Format != "json" {
		t.Fatalf("flags not applied: %+v", o)
	}
}

func TestJSONLoggerSchema(t *testing.T) {
	var buf bytes.Buffer
	l, err := (&Options{Level: "info", Format: "json"}).Logger(&buf)
	if err != nil {
		t.Fatal(err)
	}
	l = l.With(KeyRequestID, "req-7", KeyTraceID, "0af7651916cd43dd8448eb211c80319c",
		KeyEndpoint, "simulate", KeyTenant, "acme", KeyJobID, "job-3")
	l.Info("request done", "code", 200)
	l.Debug("suppressed")

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("want 1 record (debug suppressed), got %d:\n%s", len(lines), buf.String())
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, lines[0])
	}
	for key, want := range map[string]any{
		KeyRequestID: "req-7",
		KeyTraceID:   "0af7651916cd43dd8448eb211c80319c",
		KeyEndpoint:  "simulate",
		KeyTenant:    "acme",
		KeyJobID:     "job-3",
		"msg":        "request done",
		"code":       float64(200),
	} {
		if rec[key] != want {
			t.Errorf("record[%q] = %v, want %v", key, rec[key], want)
		}
	}
}

func TestLevelFiltering(t *testing.T) {
	var buf bytes.Buffer
	l, err := (&Options{Level: "error", Format: "text"}).Logger(&buf)
	if err != nil {
		t.Fatal(err)
	}
	l.Warn("dropped")
	l.Error("kept")
	if strings.Contains(buf.String(), "dropped") || !strings.Contains(buf.String(), "kept") {
		t.Fatalf("level filter broken:\n%s", buf.String())
	}
}

func TestBadOptionsRejected(t *testing.T) {
	if _, err := (&Options{Level: "loud"}).Logger(io.Discard); err == nil {
		t.Error("bad level accepted")
	}
	if _, err := (&Options{Format: "xml"}).Logger(io.Discard); err == nil {
		t.Error("bad format accepted")
	}
}

func TestDiscardDropsEverything(t *testing.T) {
	// Must not panic and must not write anywhere observable.
	l := Discard()
	l.Error("nothing")
	if l.Enabled(context.Background(), slog.LevelError) {
		t.Error("discard logger claims to be enabled")
	}
}

func TestFailLogsAndReturnsOne(t *testing.T) {
	var buf bytes.Buffer
	l := slog.New(slog.NewTextHandler(&buf, nil))
	if code := Fail(l, "boom", "cause", "test"); code != 1 {
		t.Fatalf("Fail returned %d", code)
	}
	if !strings.Contains(buf.String(), "boom") || !strings.Contains(buf.String(), "cause=test") {
		t.Fatalf("Fail did not log:\n%s", buf.String())
	}
}
