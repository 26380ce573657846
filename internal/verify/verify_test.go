package verify

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bitio"
)

func TestCheckerOffIsFree(t *testing.T) {
	var c *Checker // nil checker must be safe
	c.Check(false, "x", "boom")
	c2 := NewChecker(ModeOff)
	c2.Check(false, "x", "boom")
	if len(c2.Violations()) != 0 {
		t.Error("off checker recorded")
	}
}

func TestCheckerRecord(t *testing.T) {
	c := NewChecker(ModeRecord)
	c.Check(true, "ok", "fine")
	c.Check(false, "bad", "value=%d", 7)
	vs := c.Violations()
	if len(vs) != 1 || vs[0].Name != "bad" || vs[0].Detail != "value=7" {
		t.Errorf("violations = %+v", vs)
	}
	if c.Checks() != 2 {
		t.Errorf("checks = %d", c.Checks())
	}
	if !strings.Contains(vs[0].Error(), "bad") {
		t.Error("Violation.Error missing name")
	}
}

func TestCheckerPanic(t *testing.T) {
	c := NewChecker(ModePanic)
	c.Check(true, "ok", "fine")
	defer func() {
		r := recover()
		v, ok := r.(*Violation)
		if !ok || v.Name != "bad" {
			t.Errorf("panic value = %v", r)
		}
	}()
	c.Check(false, "bad", "boom")
}

func TestRegistry(t *testing.T) {
	var r Registry
	r.Add("stuffing", "roundtrip", func() error { return nil })
	r.Add("stuffing", "flag-free", func() error { return nil })
	r.Add("framing", "delimits", func() error { return errors.New("nope") })
	if r.Len() != 3 {
		t.Errorf("Len = %d", r.Len())
	}
	fails := r.RunAll()
	if len(fails) != 1 || fails[0].Name != "framing/delimits" {
		t.Errorf("fails = %+v", fails)
	}
	pm := r.PerModule()
	if len(pm) != 2 || pm[0].Module != "framing" || pm[0].Lemmas != 1 ||
		pm[1].Module != "stuffing" || pm[1].Lemmas != 2 {
		t.Errorf("PerModule = %+v", pm)
	}
}

func TestExhaustiveBitsCoversAll(t *testing.T) {
	seen := make(map[string]bool)
	_, err := ExhaustiveBits(3, func(b bitio.Bits) error {
		seen[b.String()] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// 1 + 2 + 4 + 8 = 15 strings.
	if len(seen) != 15 {
		t.Errorf("covered %d strings, want 15", len(seen))
	}
	if !seen[""] || !seen["101"] || !seen["111"] {
		t.Error("missing expected strings")
	}
}

func TestExhaustiveBitsFindsCounterexample(t *testing.T) {
	bad, err := ExhaustiveBits(6, func(b bitio.Bits) error {
		if b.String() == "1011" {
			return errors.New("found")
		}
		return nil
	})
	if err == nil || bad.String() != "1011" {
		t.Errorf("bad = %q err = %v", bad, err)
	}
}

func TestExhaustiveBytes(t *testing.T) {
	count := 0
	_, err := ExhaustiveBytes(2, []byte{0, 1, 2}, func(b []byte) error {
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// 1 + 3 + 9 = 13
	if count != 13 {
		t.Errorf("count = %d, want 13", count)
	}
	bad, err := ExhaustiveBytes(3, []byte{0, 1}, func(b []byte) error {
		if len(b) == 2 && b[0] == 1 && b[1] == 0 {
			return fmt.Errorf("ce")
		}
		return nil
	})
	if err == nil || len(bad) != 2 || bad[0] != 1 || bad[1] != 0 {
		t.Errorf("bad = %v err = %v", bad, err)
	}
}

func TestExhaustiveBytesEmptyAlphabet(t *testing.T) {
	if _, err := ExhaustiveBytes(2, nil, func(b []byte) error { return errors.New("x") }); err != nil {
		t.Error("empty alphabet should be a no-op")
	}
}
