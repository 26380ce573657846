package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/command"
)

// TestRunSmoke fuzzes two seeds, saving both cases, then replays one
// with flight-recorder and pcapng evidence: the campaign and replay
// paths end to end, small enough for -short.
func TestRunSmoke(t *testing.T) {
	corpus, evidence := t.TempDir(), t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-seeds", "2", "-save", corpus}, &out); err != nil {
		t.Fatalf("campaign: %v\n%s", err, out.String())
	}
	for _, w := range []string{"ok   seed-1 (", "ok   seed-2 (", "fuzzdrive: 2 seeds, 0 failures"} {
		if !strings.Contains(out.String(), w) {
			t.Errorf("campaign output lacks %q:\n%s", w, out.String())
		}
	}

	out.Reset()
	if err := run([]string{"-replay", filepath.Join(corpus, "seed-2.json"), "-trace", evidence}, &out); err != nil {
		t.Fatalf("replay: %v\n%s", err, out.String())
	}
	if !strings.HasPrefix(out.String(), "seed-2: ok") {
		t.Errorf("replay output = %q, want seed-2: ok ...", out.String())
	}
	for _, name := range []string{"seed-2-sublayered.pcapng", "seed-2-monolithic.trace.json"} {
		if _, err := os.Stat(filepath.Join(evidence, name)); err != nil {
			t.Errorf("replay left no %s: %v", name, err)
		}
	}
}

// TestRunUsageErrors: stray arguments and an unreadable reproducer are
// usage errors (exit 2), not failed cases.
func TestRunUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-seeds", "1", "extra"},
		{"-replay", filepath.Join(t.TempDir(), "missing.json")},
	} {
		if err := run(args, &bytes.Buffer{}); !errors.As(err, new(command.UsageError)) {
			t.Errorf("%v: err = %v, want a usage error", args, err)
		}
	}
}
