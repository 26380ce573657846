package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestCommon pins the experiment selection run is built on: the flag
// set, how -e resolves against the experiment table, which results count
// as failed, and where output goes.
func TestCommon(t *testing.T) {
	// A wall-clock stub beside the real table, counting its runs so the
	// subtests can tell "resolved" from "ran".
	wallStubRuns := 0
	defer func(run func(string, experiments.Config) *experiments.Result) { runExperiment = run }(runExperiment)
	runExperiment = func(id string, cfg experiments.Config) *experiments.Result {
		if strings.ToLower(id) != "wallstub" {
			return experiments.Run(id, cfg)
		}
		wallStubRuns++
		return &experiments.Result{ID: "WALLSTUB", Rows: [][]string{{"ok"}}}
	}

	t.Run("flags", func(t *testing.T) {
		fs := flag.NewFlagSet("x", flag.ContinueOnError)
		addCommon(fs)
		var got []string
		fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
		if want := []string{"backend", "e", "seed", "trace"}; !reflect.DeepEqual(got, want) {
			t.Errorf("flags = %v, want %v", got, want)
		}
	})

	t.Run("unknown id lists deterministic then wall ids", func(t *testing.T) {
		_, err := (&common{Exp: "e5,e99"}).results()
		if err == nil {
			t.Fatal("-e e99 resolved")
		}
		known := strings.Join(experiments.IDs(), ",") + "," + strings.Join(experiments.WallIDs(), ",")
		if !strings.Contains(err.Error(), `"e99"`) || !strings.HasSuffix(err.Error(), "(want one of "+known+")") {
			t.Errorf("error = %q, want it to name e99 and end with the ids %s", err, known)
		}
	})

	t.Run("wall id runs only when named", func(t *testing.T) {
		before := wallStubRuns
		results, err := (&common{Exp: " e5 , WallStub "}).results()
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != 2 || results[0].ID != "E5" || results[1].ID != "WALLSTUB" {
			t.Errorf("results = %v, want E5 then WALLSTUB", ids(results))
		}
		if wallStubRuns != before+1 {
			t.Errorf("stub ran %d times, want 1", wallStubRuns-before)
		}
	})

	t.Run("empty -e runs the deterministic set only", func(t *testing.T) {
		if testing.Short() {
			t.Skip("runs every deterministic experiment")
		}
		before := wallStubRuns
		results, err := (&common{Seed: 1}).results()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := strings.ToLower(strings.Join(ids(results), ",")), strings.Join(experiments.IDs(), ","); got != want {
			t.Errorf("ran %s, want %s", got, want)
		}
		if wallStubRuns != before {
			t.Error("the run-everything default executed a wall-clock experiment")
		}
	})

	t.Run("failed", func(t *testing.T) {
		clean := &experiments.Result{ID: "A", Rows: [][]string{{"x", "no error: here"}}}
		broken := &experiments.Result{ID: "B", Rows: [][]string{{"x", "1"}, {"y", "error: completed 3/4"}, {"error: again"}}}
		if got := failed([]*experiments.Result{clean, broken}); !reflect.DeepEqual(got, []string{"B"}) {
			t.Errorf("failed = %v, want [B]", got)
		}
	})

	t.Run("write output", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "out.json")
		data := []byte("{\"seed\": 1}\n")
		if err := writeOutput(path, data, io.Discard); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, data) {
			t.Errorf("read back %q, %v", got, err)
		}
		if err := writeOutput(filepath.Join(path, "under-a-file"), data, io.Discard); err == nil {
			t.Error("writing below a regular file succeeded")
		}
	})
}

func ids(results []*experiments.Result) []string {
	var out []string
	for _, r := range results {
		out = append(out, r.ID)
	}
	return out
}
