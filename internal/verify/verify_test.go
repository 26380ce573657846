package verify

import (
	"errors"
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
	if m := r.Modules(); len(m) != 2 || m[0] != "stuffing" || m[1] != "framing" {
		t.Errorf("Modules = %v", m)
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
