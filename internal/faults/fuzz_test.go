package faults

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzScriptJSON feeds hostile bytes to the reproducer-file decoder a
// fault-schedule replay loads. UnmarshalJSON must never panic, and a
// script it accepts must encode to a fixed point: decoding that
// encoding and encoding again gives the same bytes. Seeded from the
// golden reproducer, which holds every fault kind once.
func FuzzScriptJSON(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "script_golden.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte(`{"name":"x","steps":[]}`))
	f.Add([]byte(`{"steps":[{"at":"1s","for":"-1s","fault":{"kind":"flap","a":1,"b":1}}]}`))
	f.Add([]byte(`{"steps":[{"at":1e300,"fault":{"kind":"bursty","loss_bad":2}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Script
		if s.UnmarshalJSON(data) != nil {
			return
		}
		once, err := s.MarshalJSON()
		if err != nil {
			t.Fatalf("decoded script does not encode: %v", err)
		}
		var back Script
		if err := back.UnmarshalJSON(once); err != nil {
			t.Fatalf("encoding does not decode: %v\n%s", err, once)
		}
		twice, err := back.MarshalJSON()
		if err != nil {
			t.Fatalf("re-decoded script does not encode: %v", err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("encoding is not a fixed point:\n once  %s\n twice %s", once, twice)
		}
	})
}
