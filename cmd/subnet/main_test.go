package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestParseArgsRejects pins the exit-2 half of the command line: each
// bad value is refused with its reason and the usage text, instead of
// silently running something else.
func TestParseArgsRejects(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // substring of the reason
	}{
		{[]string{"-routing", "foo"}, `unknown -routing "foo"`},
		{[]string{"-routers", "1"}, "at least 2 routers"},
		{[]string{"-loss", "1.5"}, "not a probability"},
		{[]string{"-loss", "-0.1"}, "not a probability"},
		{[]string{"-loss", "NaN"}, "not a probability"},
		{[]string{"-bytes", "-1"}, "negative"},
		{[]string{"-cut", "2"}, "is not A:B"},
		{[]string{"-cut", "2:x"}, "is not A:B"},
		{[]string{"-cut", "2:3:4"}, "is not A:B"},
		{[]string{"-cut", "9:10"}, "outside 1..5"},
		{[]string{"-cut", "0:1"}, "outside 1..5"},
		{[]string{"-cut", "2:4"}, "no link joins"},
		{[]string{"-cut", "3:3"}, "no link joins"},
		{[]string{"-cut", "5:1"}, "no link joins"}, // the ring edge, without -ring
		{[]string{"-routers", "2", "-ring", "-cut", "1:1"}, "no link joins"},
		{[]string{"-nosuchflag"}, "flag provided but not defined"},
	} {
		var stderr bytes.Buffer
		o, err := parseArgs(tc.args, &stderr)
		if err == nil {
			t.Errorf("%v: accepted as %+v", tc.args, *o)
			continue
		}
		out := stderr.String()
		if !strings.Contains(out, tc.want) {
			t.Errorf("%v: stderr lacks %q:\n%s", tc.args, tc.want, out)
		}
		if !strings.Contains(out, "Usage of subnet") {
			t.Errorf("%v: no usage text on stderr:\n%s", tc.args, out)
		}
	}
}

func TestParseArgsAccepts(t *testing.T) {
	for _, tc := range []struct {
		args       []string
		cutA, cutB int
	}{
		{nil, 0, 0},
		{[]string{"-routing", "ls", "-loss", "0", "-bytes", "0"}, 0, 0},
		{[]string{"-loss", "1"}, 0, 0},
		{[]string{"-cut", "2:3"}, 2, 3},
		{[]string{"-cut", "3:2"}, 3, 2},
		{[]string{"-ring", "-cut", "5:1"}, 5, 1},
		{[]string{"-ring", "-routers", "8", "-cut", "1:8"}, 1, 8},
	} {
		var stderr bytes.Buffer
		o, err := parseArgs(tc.args, &stderr)
		if err != nil {
			t.Errorf("%v: rejected: %v", tc.args, err)
			continue
		}
		if int(o.cutA) != tc.cutA || int(o.cutB) != tc.cutB {
			t.Errorf("%v: cut %d:%d, want %d:%d", tc.args, o.cutA, o.cutB, tc.cutA, tc.cutB)
		}
		if stderr.Len() != 0 {
			t.Errorf("%v: wrote to stderr: %s", tc.args, stderr.String())
		}
	}
}
