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

// TestRunSmoke drives each mode once — a traced transfer through both
// stacks with a pcapng capture, one packet's lifecycle, the overlay
// lookup and a flight-recorder dump — on inputs small enough for
// -short.
func TestRunSmoke(t *testing.T) {
	dir := t.TempDir()
	dump := filepath.Join(dir, "rec.trace.json")
	if err := os.WriteFile(dump, []byte(`{"total": 7, "ring_dropped": 2, "chains_evicted": 1, "recent": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want []string // substrings of stdout
	}{
		{[]string{"-size", "2048", "-hops", "2", "-pcap", filepath.Join(dir, "cap")},
			[]string{"=== sublayered (seed 1, loss 5%, 2 hops, 2048 bytes) ===", "-sublayered.pcapng (", "=== cross-stack diff"}},
		{[]string{"-size", "2048", "-id", "999999"}, []string{"packet id=999999 not found"}},
		{[]string{"-overlay"}, []string{"lookup finished: found=true"}},
		{[]string{"-dump", dump}, []string{"7 events observed, 2 aged out of the ring, 1 chains evicted", "no violation snapshots"}},
	} {
		var out bytes.Buffer
		if err := run(tc.args, &out); err != nil {
			t.Errorf("%v: %v", tc.args, err)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(out.String(), w) {
				t.Errorf("%v: output lacks %q:\n%s", tc.args, w, out.String())
			}
		}
	}
}

// TestRunErrors: a malformed command line is a usage error; a dump
// that does not parse is a plain failure.
func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{{"-hops", "x"}, {"extra"}} {
		if err := run(args, &bytes.Buffer{}); !errors.As(err, new(command.UsageError)) {
			t.Errorf("%v: err = %v, want a usage error", args, err)
		}
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-dump", bad}, &bytes.Buffer{}); err == nil || errors.As(err, new(command.UsageError)) {
		t.Errorf("bad dump: err = %v, want a non-usage error", err)
	}
}
