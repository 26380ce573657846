package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/command"
)

// TestFixture runs the gate over testdata/mod, a two-module tree with
// one planted declaration per case, once with an empty allowlist and
// once with one that allowlists the plants and carries three stale lines.
func TestFixture(t *testing.T) {
	l, err := load("testdata/mod")
	if err != nil {
		t.Fatal(err)
	}
	empty := filepath.Join(t.TempDir(), "empty.txt")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		allow string
		want  []string // every line of output
	}{
		{empty, []string{
			// A planted unused exported function, and one only a
			// _test.go file names, each at its file:line. Err's
			// Error, MarshalJSON and MarshalText satisfy std
			// interfaces; SecondOnly is named by the second module.
			// cmd/app's test declares TestApp; cmd/notest's declares
			// nothing.
			"a/a.go:13: fix/a.Unused has no caller outside _test.go files",
			"a/a.go:16: fix/a.OnlyTested has no caller outside _test.go files",
			"cmd/notest: main package fix/cmd/notest has no test",
		}},
		{"testdata/stale.txt", []string{
			// An entry whose reason names a missing test keeps nothing.
			"a/a.go:13: fix/a.Unused has no caller outside _test.go files",
			"testdata/stale.txt:4: fix/a.Unused's reason names TestPlanted, which no _test.go file declares",
			"testdata/stale.txt:7: fix/a.Used is allowlisted but has a caller or a test",
			"testdata/stale.txt:8: fix/a.Gone is allowlisted but names nothing",
		}},
	} {
		var out bytes.Buffer
		if err := l.report(tc.allow, &out); err == nil {
			t.Errorf("%s: passed, want a failure:\n%s", tc.allow, out.String())
		}
		if got, want := strings.TrimSpace(out.String()), strings.Join(tc.want, "\n"); got != want {
			t.Errorf("%s: got\n%s\nwant\n%s", tc.allow, got, want)
		}
	}
}

// TestRunRejectsArguments: the gate takes no arguments, and says so
// with a usage error (exit 2).
func TestRunRejectsArguments(t *testing.T) {
	if err := run([]string{"./..."}, io.Discard); !errors.As(err, new(command.UsageError)) {
		t.Errorf("run(./...) = %v, want a usage error", err)
	}
}
