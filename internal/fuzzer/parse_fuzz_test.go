package fuzzer

import (
	"bytes"
	"io/fs"
	"testing"
)

// FuzzParseCase: ParseCase never panics on a hostile reproducer file,
// and a case it accepts has positive transfer sizes, a host count, and
// an encoding that parses again to the same bytes (MarshalIndent is a
// fixed point). Seeded from the committed corpus.
func FuzzParseCase(f *testing.F) {
	names, err := fs.Glob(corpusFS, "corpus/*.json")
	if err != nil || len(names) == 0 {
		f.Fatalf("embedded corpus: %v (%d files)", err, len(names))
	}
	for _, n := range names {
		b, err := fs.ReadFile(corpusFS, n)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"c2s":1,"s2c":1}`))
	f.Add([]byte(`{"c2s":0,"s2c":1,"hosts":-1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ParseCase(data)
		if err != nil {
			return
		}
		if c.C2S <= 0 || c.S2C <= 0 || c.Hosts == 0 {
			t.Fatalf("accepted c2s=%d s2c=%d hosts=%d", c.C2S, c.S2C, c.Hosts)
		}
		once, err := c.MarshalIndent()
		if err != nil {
			t.Fatalf("accepted case does not encode: %v", err)
		}
		back, err := ParseCase(once)
		if err != nil {
			t.Fatalf("encoding does not parse: %v\n%s", err, once)
		}
		twice, err := back.MarshalIndent()
		if err != nil {
			t.Fatalf("re-parsed case does not encode: %v", err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("encoding is not a fixed point:\n once  %s\n twice %s", once, twice)
		}
	})
}
