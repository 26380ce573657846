package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"slices"
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

// TestWalkthroughQuotesRun keeps docs/ARCHITECTURE.md's walkthrough 2
// true: the default command (seed 1, 32768 bytes, 3 hops) prints every
// "packet id=… flow … seq=…" line the walkthrough's excerpt quotes, and
// the transport/rexmit counts its text gives.
func TestWalkthroughQuotesRun(t *testing.T) {
	doc, err := os.ReadFile("../../docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(doc), "## Worked walkthrough 2")
	section, _, _ = strings.Cut(section, "## Worked walkthrough 3")
	_, excerpt, _ := strings.Cut(section, "$ go run ./cmd/tracedump\n")
	excerpt, _, _ = strings.Cut(excerpt, "```")
	var quoted []string
	for _, line := range strings.Split(excerpt, "\n") {
		if strings.Contains(line, "packet id=") {
			quoted = append(quoted, strings.TrimSpace(line))
		}
	}
	counts := regexp.MustCompile("`transport/rexmit`\\s+reads\\s+(\\d+)\\s+for\\s+the\\s+sublayered\\s+stack\\s+and\\s+(\\d+)\\s+for\\s+the\\s+monolithic").FindStringSubmatch(section)
	if len(quoted) == 0 || counts == nil {
		t.Fatalf("walkthrough 2 quotes %d packet lines and rexmit counts %q: cannot check it", len(quoted), counts)
	}
	var out bytes.Buffer
	if err := run(nil, &out); err != nil {
		t.Fatal(err)
	}
	printed := make(map[string]bool)
	var rexmit []string
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		printed[strings.Join(f, " ")] = true
		if len(f) >= 3 && f[0] == "transport/rexmit" {
			rexmit = f[1:3]
		}
	}
	for _, q := range quoted {
		if !printed[strings.Join(strings.Fields(q), " ")] {
			t.Errorf("walkthrough 2 quotes %q, which the run does not print", q)
		}
	}
	if !slices.Equal(rexmit, counts[1:]) {
		t.Errorf("walkthrough 2 says transport/rexmit %v (sublayered, monolithic); the run prints %v", counts[1:], rexmit)
	}
}
