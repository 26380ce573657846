package faults

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/network"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenScript exercises every JSON-serializable fault kind once.
func goldenScript() Script {
	return Script{Name: "golden", Steps: []Step{
		{At: 200 * time.Millisecond, For: 400 * time.Millisecond, Fault: LinkFlap{A: 2, B: 3}},
		{At: 300 * time.Millisecond, For: 2 * time.Second, Fault: RandomLinkFlaps{
			A: 1, B: 2, N: 3, MinDown: 50 * time.Millisecond, MaxDown: 250 * time.Millisecond,
		}},
		{At: 900 * time.Millisecond, For: 1500 * time.Millisecond, Fault: Partition{Nodes: []network.Addr{3, 4}}},
		{At: 3 * time.Second, For: 800 * time.Millisecond, Fault: RouterPause{Addr: 3}},
		{At: 4 * time.Second, For: 1200 * time.Millisecond, Fault: RouterCrash{Addr: 2}},
		{At: 6 * time.Second, For: time.Second, Fault: Blackhole{At: 2}},
		{At: 7500 * time.Millisecond, For: 2 * time.Second, Fault: BurstyLoss{A: 3, B: 4, GE: GEConfig{
			MeanGood: 300 * time.Millisecond, MeanBad: 60 * time.Millisecond, LossBad: 0.4,
		}}},
		{At: 10 * time.Second, For: time.Second, Fault: Reorder{A: 1, B: 2, Prob: 0.35}},
	}}
}

// TestScriptJSONGolden pins the reproducer file format: the encoding is
// what humans read in code review and what the fuzz corpus is stored
// as, so format drift must be a deliberate, diff-visible choice.
func TestScriptJSONGolden(t *testing.T) {
	got, err := json.MarshalIndent(goldenScript(), "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "script_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("encoding drifted from golden file %s\ngot:\n%s\nwant:\n%s", path, got, want)
	}

	// The golden file loads back and survives a second round trip
	// byte-for-byte.
	var back Script
	if err := json.Unmarshal(want, &back); err != nil {
		t.Fatalf("unmarshal golden: %v", err)
	}
	again, err := json.MarshalIndent(back, "", "  ")
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if !bytes.Equal(append(again, '\n'), want) {
		t.Errorf("round trip not stable:\n%s", again)
	}
	// No fault holds a func, so the decoded script is the original.
	if !reflect.DeepEqual(back, goldenScript()) {
		t.Errorf("round trip changed the script:\n%#v\nwant\n%#v", back, goldenScript())
	}
}

func TestScriptJSONRejects(t *testing.T) {
	// Unknown kinds and malformed durations fail loudly.
	for _, bad := range []string{
		`{"name":"x","steps":[{"at":"1s","for":"1s","fault":{"kind":"meteor"}}]}`,
		`{"name":"x","steps":[{"at":"soon","for":"1s","fault":{"kind":"flap","a":1,"b":2}}]}`,
		// Validate runs on load: a structurally bad reproducer is refused.
		`{"name":"x","steps":[{"at":"1s","for":"1s","fault":{"kind":"flap","a":2,"b":2}}]}`,
		`{"name":"x","steps":[{"at":"1s","for":"1s","fault":{"kind":"reorder","a":1,"b":2,"prob":3}}]}`,
	} {
		var s Script
		if err := json.Unmarshal([]byte(bad), &s); err == nil {
			t.Errorf("bad reproducer accepted: %s", bad)
		}
	}
}
