package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/command"
)

// TestRunSmoke drives each mode once, as the usage lines in the package
// comment do, on inputs small enough for -short.
func TestRunSmoke(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string // substrings of stdout
	}{
		{[]string{"-library", "-flaglen", "6", "-top", "2"},
			[]string{"valid rules for 6-bit flags: 484", "... 482 more"}},
		{[]string{"-flag", "01111110", "-watch", "11111", "-stuff", "0", "-data", "1011111111"},
			[]string{"VALID for all data strings", "1 stuffed", "round trip true"}},
		{[]string{"-validate"}, []string{"overhead: naive 1/32, exact 1/62.0"}},
	} {
		var out bytes.Buffer
		if err := run(tc.args, &out); err != nil {
			t.Errorf("%v: %v", tc.args, err)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(out.String(), w) {
				t.Errorf("%v: output lacks %q:\n%s", tc.args, w, out.String())
			}
		}
	}
}

// TestRunErrors: an invalid rule is a failure reported after its
// counterexample; a malformed command line is a usage error.
func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-validate", "-flag", "0101", "-watch", "10", "-stuff", "1"}, &out)
	if err == nil || errors.As(err, new(command.UsageError)) {
		t.Errorf("invalid rule: err = %v, want a non-usage error", err)
	}
	if !strings.Contains(out.String(), "counterexample data:") {
		t.Errorf("invalid rule printed no counterexample:\n%s", out.String())
	}
	for _, args := range [][]string{
		{"-stuff", "2"},
		{"-flag", "01x"},
		{"-data", "12"},
		{"extra"},
	} {
		if err := run(args, &bytes.Buffer{}); !errors.As(err, new(command.UsageError)) {
			t.Errorf("%v: err = %v, want a usage error", args, err)
		}
	}
}
