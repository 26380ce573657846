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
