package ccontrol

import "fmt"

// DefaultName is the controller both stacks construct when no name is
// configured.
const DefaultName = "newreno"

// controllers is every algorithm by name, in the order Names lists
// them. Adding a controller is one line here: both stacks, the E12
// bake-off and examples/ccswap select by name, with no further wiring.
var controllers = []struct {
	name string
	mk   func(mss int) Controller
}{
	{"bbrlite", func(mss int) Controller { return NewBBRLite(mss) }},
	{"cubic", func(mss int) Controller { return NewCubic(mss) }},
	// "fixed" is E8's baseline: a 16 KiB window whatever the MSS.
	{"fixed", func(int) Controller { return NewFixedWindow(16 << 10) }},
	{"newreno", func(mss int) Controller { return NewNewReno(mss) }},
	{"rate-based", func(mss int) Controller { return NewRateBased(mss) }},
}

// New builds the named controller ("" is DefaultName) for segments of
// mss payload bytes, or errors with the known names.
func New(name string, mss int) (Controller, error) {
	if name == "" {
		name = DefaultName
	}
	for _, c := range controllers {
		if c.name == name {
			return c.mk(mss), nil
		}
	}
	return nil, fmt.Errorf("ccontrol: unknown controller %q (have %v)", name, Names())
}

// MustNew is New for statically known names (stack construction,
// tests); it panics on an unknown name.
func MustNew(name string, mss int) Controller {
	c, err := New(name, mss)
	if err != nil {
		panic(err)
	}
	return c
}

// Names lists the controllers in table order, which is sorted, for
// deterministic iteration in experiments and reports.
func Names() []string {
	out := make([]string, len(controllers))
	for i, c := range controllers {
		out[i] = c.name
	}
	return out
}
