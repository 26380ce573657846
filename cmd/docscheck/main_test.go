package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestStaleMakeTarget: a doc that tells the reader to run a target the
// Makefile no longer declares is reported, with its line; declared
// targets, flags, prose and the history files are not.
func TestStaleMakeTarget(t *testing.T) {
	root := t.TempDir()
	write := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(root, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("Makefile", ".PHONY: build test\n\nbuild:\n\ttrue\n")
	write("README.md", strings.Join([]string{
		"Run `make build test`, then `make -j4 GO=go1.24 deploy`.", // line 1: deploy is stale
		"Three rules make the swap invisible.",                     // prose, not a command
		"```",
		"make test      # the suite",
		"  make lint",                              // line 5: stale
		"go run ./x  # `make build` does the same", // a span inside a fence
		"```",
	}, "\n"))
	write("CHANGES.md", "PR 15 deleted `make pardet`.\n")

	problems, _, err := check(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		filepath.Join(root, "README.md") + ":1: `make deploy`",
		filepath.Join(root, "README.md") + ":5: `make lint`",
	}
	if len(problems) != len(want) {
		t.Fatalf("problems = %q, want %d", problems, len(want))
	}
	for i, w := range want {
		if !strings.HasPrefix(problems[i], w) {
			t.Errorf("problems[%d] = %q, want prefix %q", i, problems[i], w)
		}
	}
}

// TestStalePath: a code span naming a package, file or directory that
// is not in the tree is reported, with its line; paths that exist —
// bare, with a trailing slash, a .Symbol or arguments — spans that do
// not begin with a source directory, and the history files are not.
func TestStalePath(t *testing.T) {
	root := t.TempDir()
	write := func(name, body string) {
		t.Helper()
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("Makefile", ".PHONY: build\n")
	write("internal/sublayer/sublayer.go", "package sublayer\n")
	write("bench/run.sh", "#!/bin/sh\n")
	write("README.md", strings.Join([]string{
		"The framework is `internal/sublayer`, facade in `internal/core`.",       // line 1: core is stale
		"See `internal/sublayer/`, `internal/sublayer.Stack.BindMetrics` and",    // all present
		"`internal/sublayer/sublayer.go`; run `bench/run.sh -workload churn`.",   // all present
		"`internal/sublayer/gone.go` and `cmd/nosuch -flag` are not there.",      // line 4: two stale
		"A `repro/internal/core` import path or a bare `core.Stack` is not ours", // no leading source dir
		"to check, but `internal/core.Stack` is.",                                // line 6: stale
	}, "\n"))
	write("CHANGES.md", "PR 19 deleted `internal/core`.\n")

	problems, _, err := check(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	readme := filepath.Join(root, "README.md")
	want := []string{
		readme + ":1: `internal/core`",
		readme + ":4: `internal/sublayer/gone.go`",
		readme + ":4: `cmd/nosuch`",
		readme + ":6: `internal/core.Stack`",
	}
	if len(problems) != len(want) {
		t.Fatalf("problems = %q, want %d", problems, len(want))
	}
	for i, w := range want {
		if !strings.HasPrefix(problems[i], w) {
			t.Errorf("problems[%d] = %q, want prefix %q", i, problems[i], w)
		}
	}
}

// TestStaleCommand: a command the tree no longer has is reported
// wherever a doc names it — `go run ./cmd/x` in a span, a fenced
// command line, a layout listing, prose — while existing commands,
// paths that merely end in cmd/x and the history files are not.
func TestStaleCommand(t *testing.T) {
	root := t.TempDir()
	write := func(name, body string) {
		t.Helper()
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("Makefile", ".PHONY: build\n")
	write("cmd/runreport/main.go", "package main\n")
	write("README.md", strings.Join([]string{
		"Run `go run ./cmd/runreport -o -` or `go run ./cmd/oldreport -e e9`.", // line 1: oldreport
		"```",
		"go run ./cmd/oldreport           # the old tables", // line 3
		"cmd/oldreport     regenerate tables",               // line 4: a layout listing
		"cmd/runreport     run report",
		"```",
		"The (cmd/oldreport) tool and repro/cmd/oldreport and bench/cmd/x.", // line 7: only the first
	}, "\n"))
	write("CHANGES.md", "Deleted `go run ./cmd/oldreport`.\n")

	problems, _, err := check(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	readme := filepath.Join(root, "README.md")
	want := []string{
		readme + ":1: cmd/oldreport",
		readme + ":3: cmd/oldreport",
		readme + ":4: cmd/oldreport",
		readme + ":7: cmd/oldreport",
	}
	if len(problems) != len(want) {
		t.Fatalf("problems = %q, want %d", problems, len(want))
	}
	for i, w := range want {
		if !strings.HasPrefix(problems[i], w) {
			t.Errorf("problems[%d] = %q, want prefix %q", i, problems[i], w)
		}
	}
}

// TestGoTestRunsNothing: a quoted go test command whose -run or -bench
// pattern matches no function in the packages it names is reported,
// with its line — a root package with no tests, a benchmark that is
// gone, a pattern naming only a test when -bench wants a benchmark, a
// pattern a value-less flag must not swallow — while patterns that
// match (anchored, alternated, with a subtest part), deliberate "^$"
// and the history files are not.
func TestGoTestRunsNothing(t *testing.T) {
	root := t.TempDir()
	write := func(name, body string) {
		t.Helper()
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("Makefile", ".PHONY: build\n")
	write("doc.go", "package repro\n")
	write("internal/overlay/overlay_test.go", "package overlay\n\nfunc TestJoinLeave(t *testing.T) {}\nfunc BenchmarkCall(b *testing.B) {}\n")
	write("internal/netsim/sim_test.go", "package netsim\n\nfunc FuzzEventStore(f *testing.F) {}\n")
	write("README.md", strings.Join([]string{
		"Run `go test -bench=Nope .` or `go test ./internal/overlay -run 'JoinLeave|Gone'`.", // line 1: root has no tests
		"```",
		"go test -run '^TestJoinLeave$/sub' ./internal/overlay",
		"go test -v -bench Call -benchtime=1x ./internal/overlay",
		"go test -run '^$' -fuzz FuzzEventStore -fuzztime 5s ./internal/netsim",
		"go test -bench=JoinLeave ./internal/overlay  # a test, not a benchmark", // line 6
		"go test -run Missing ./internal/gone",                                   // line 7: no package
		"go test -work -run Nope ./internal/overlay",                             // line 8
		"go test -run FuzzEventStore ./internal/netsim",
		"go test ./...",
		"```",
	}, "\n"))
	write("CHANGES.md", "Deleted `go test -bench=E1 -benchtime=1x .`.\n")

	problems, _, err := check(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	readme := filepath.Join(root, "README.md")
	want := []string{
		readme + ":1: `go test -bench=Nope .`: -bench \"Nope\" matches no test function",
		readme + ":6: `go test -bench=JoinLeave",
		readme + ":7: `go test -run Missing ./internal/gone`: no package",
		readme + ":8: `go test -work -run Nope ./internal/overlay`: -run \"Nope\" matches no test function",
	}
	if len(problems) != len(want) {
		t.Fatalf("problems = %q, want %d", problems, len(want))
	}
	for i, w := range want {
		if !strings.HasPrefix(problems[i], w) {
			t.Errorf("problems[%d] = %q, want prefix %q", i, problems[i], w)
		}
	}
}
