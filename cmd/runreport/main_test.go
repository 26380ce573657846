package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/command"
)

// TestRunSmoke runs one cheap experiment into each format: the JSON
// manifest written to a file, and the text dump on stdout.
func TestRunSmoke(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	var out bytes.Buffer
	if err := run([]string{"-e", "e9", "-o", path}, &out); err != nil {
		t.Fatalf("json: %v\n%s", err, out.String())
	}
	if !strings.HasPrefix(out.String(), "wrote "+path+" (1 experiments, ") {
		t.Errorf("json: stdout = %q", out.String())
	}
	var rep struct {
		Seed        int64
		Experiments []struct{ ID string }
	}
	if data, err := os.ReadFile(path); err != nil || json.Unmarshal(data, &rep) != nil ||
		rep.Seed != 1 || len(rep.Experiments) != 1 || rep.Experiments[0].ID != "E9" {
		t.Errorf("json: manifest %+v, %v", rep, err)
	}

	out.Reset()
	if err := run([]string{"-e", "e9", "-seed", "7", "-o", "-", "-format", "text"}, &out); err != nil {
		t.Fatalf("text: %v", err)
	}
	for _, w := range []string{"run report (seed 7)", "=== E9", "-- metrics ("} {
		if !strings.Contains(out.String(), w) {
			t.Errorf("text: output lacks %q:\n%s", w, out.String())
		}
	}
}

// TestRunErrors: an unknown format or experiment is a usage error.
func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{{"-format", "xml"}, {"-e", "nope"}, {"-seed", "x"}} {
		if err := run(args, &bytes.Buffer{}); !errors.As(err, new(command.UsageError)) {
			t.Errorf("%v: err = %v, want a usage error", args, err)
		}
	}
}
