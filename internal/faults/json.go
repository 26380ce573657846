package faults

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/network"
)

// JSON form of a Script.
//
// Fuzz reproducers are files a human reads in a code review and diffs
// across shrink rounds, so the encoding favors readability over
// compactness: durations are "250ms"/"3s" strings, faults are tagged
// unions keyed by a short kind name, and zero-valued knobs are omitted.

// dur marshals a time.Duration as its String form ("150ms", "2s").
type dur time.Duration

func (d dur) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

func (d *dur) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("faults: bad duration %q: %w", s, err)
	}
	*d = dur(v)
	return nil
}

// faultJSON is the tagged union every fault kind flattens into.
type faultJSON struct {
	Kind string `json:"kind"`
	// Link endpoints (flap, flaps, bursty, reorder).
	A network.Addr `json:"a,omitempty"`
	B network.Addr `json:"b,omitempty"`
	// Router address (pause, crash, blackhole).
	Node network.Addr `json:"node,omitempty"`
	// Partition node set.
	Nodes []network.Addr `json:"nodes,omitempty"`
	// Random-flap knobs.
	N       int `json:"n,omitempty"`
	MinDown dur `json:"min_down,omitempty"`
	MaxDown dur `json:"max_down,omitempty"`
	// Gilbert–Elliott knobs.
	MeanGood dur     `json:"mean_good,omitempty"`
	MeanBad  dur     `json:"mean_bad,omitempty"`
	LossGood float64 `json:"loss_good,omitempty"`
	LossBad  float64 `json:"loss_bad,omitempty"`
	// Reorder probability.
	Prob float64 `json:"prob,omitempty"`
}

// stepJSON is Step's wire form.
type stepJSON struct {
	At    dur       `json:"at"`
	For   dur       `json:"for"`
	Fault faultJSON `json:"fault"`
}

// scriptJSON is Script's wire form.
type scriptJSON struct {
	Name  string     `json:"name"`
	Steps []stepJSON `json:"steps"`
}

func encodeFault(f Fault) (faultJSON, error) {
	switch f := f.(type) {
	case LinkFlap:
		return faultJSON{Kind: "flap", A: f.A, B: f.B}, nil
	case RandomLinkFlaps:
		return faultJSON{Kind: "flaps", A: f.A, B: f.B, N: f.N,
			MinDown: dur(f.MinDown), MaxDown: dur(f.MaxDown)}, nil
	case Partition:
		return faultJSON{Kind: "partition", Nodes: f.Nodes}, nil
	case RouterPause:
		return faultJSON{Kind: "pause", Node: f.Addr}, nil
	case RouterCrash:
		return faultJSON{Kind: "crash", Node: f.Addr}, nil
	case Blackhole:
		return faultJSON{Kind: "blackhole", Node: f.At}, nil
	case BurstyLoss:
		return faultJSON{Kind: "bursty", A: f.A, B: f.B,
			MeanGood: dur(f.GE.MeanGood), MeanBad: dur(f.GE.MeanBad),
			LossGood: f.GE.LossGood, LossBad: f.GE.LossBad}, nil
	case Reorder:
		return faultJSON{Kind: "reorder", A: f.A, B: f.B, Prob: f.Prob}, nil
	default:
		return faultJSON{}, fmt.Errorf("faults: unknown fault type %T", f)
	}
}

func decodeFault(j faultJSON) (Fault, error) {
	switch j.Kind {
	case "flap":
		return LinkFlap{A: j.A, B: j.B}, nil
	case "flaps":
		return RandomLinkFlaps{A: j.A, B: j.B, N: j.N,
			MinDown: time.Duration(j.MinDown), MaxDown: time.Duration(j.MaxDown)}, nil
	case "partition":
		return Partition{Nodes: j.Nodes}, nil
	case "pause":
		return RouterPause{Addr: j.Node}, nil
	case "crash":
		return RouterCrash{Addr: j.Node}, nil
	case "blackhole":
		return Blackhole{At: j.Node}, nil
	case "bursty":
		return BurstyLoss{A: j.A, B: j.B, GE: GEConfig{
			MeanGood: time.Duration(j.MeanGood), MeanBad: time.Duration(j.MeanBad),
			LossGood: j.LossGood, LossBad: j.LossBad}}, nil
	case "reorder":
		return Reorder{A: j.A, B: j.B, Prob: j.Prob}, nil
	default:
		return nil, fmt.Errorf("faults: unknown fault kind %q", j.Kind)
	}
}

// MarshalJSON implements json.Marshaler.
func (s Script) MarshalJSON() ([]byte, error) {
	out := scriptJSON{Name: s.Name, Steps: make([]stepJSON, len(s.Steps))}
	for i, st := range s.Steps {
		fj, err := encodeFault(st.Fault)
		if err != nil {
			return nil, fmt.Errorf("step %d: %w", i, err)
		}
		out.Steps[i] = stepJSON{At: dur(st.At), For: dur(st.For), Fault: fj}
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler. The decoded script is
// validated, so a hand-edited reproducer fails loudly at load time
// rather than half-applying.
func (s *Script) UnmarshalJSON(b []byte) error {
	var in scriptJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	out := Script{Name: in.Name, Steps: make([]Step, len(in.Steps))}
	for i, st := range in.Steps {
		f, err := decodeFault(st.Fault)
		if err != nil {
			return fmt.Errorf("step %d: %w", i, err)
		}
		out.Steps[i] = Step{At: time.Duration(st.At), For: time.Duration(st.For), Fault: f}
	}
	if err := out.Validate(); err != nil {
		return err
	}
	*s = out
	return nil
}
