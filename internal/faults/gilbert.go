package faults

import (
	"time"

	"repro/internal/network"
)

// GEConfig parameterizes the Gilbert–Elliott two-state bursty-loss
// model: the channel alternates between a Good state (low loss) and a
// Bad state (high loss), with exponentially distributed dwell times in
// each. Unlike the static Bernoulli LossProb, GE produces loss that
// clusters into bursts — the failure mode that actually defeats
// retransmission strategies tuned for independent loss.
type GEConfig struct {
	// MeanGood / MeanBad are the mean dwell times (exponential) in each
	// state. Defaults: 500ms good, 50ms bad.
	MeanGood, MeanBad time.Duration
	// LossGood / LossBad are the per-packet loss probabilities while in
	// each state. Defaults: 0 good, 0.3 bad.
	LossGood, LossBad float64
}

func (c GEConfig) withDefaults() GEConfig {
	if c.MeanGood <= 0 {
		c.MeanGood = 500 * time.Millisecond
	}
	if c.MeanBad <= 0 {
		c.MeanBad = 50 * time.Millisecond
	}
	if c.LossBad == 0 {
		c.LossBad = 0.3
	}
	return c
}

// burstyLoss overlays the GE model on both directions of the a–b link
// for [start, start+dur); then the link's own loss decision is back.
// State transitions are simulator events whose dwell times come from
// the injector's RNG, so the whole loss history is a pure function of
// the seed. dur <= 0 runs the model forever.
func (inj *Injector) burstyLoss(a, b network.Addr, start, dur time.Duration, cfg GEConfig) {
	cfg = cfg.withDefaults()
	// State 0 is Good, 1 Bad; each holds for an exponential dwell.
	loss := [2]float64{cfg.LossGood, cfg.LossBad}
	mean := [2]time.Duration{cfg.MeanGood, cfg.MeanBad}
	state := 0
	w := &overlay{loss: true, p: loss[state]}
	dwell := func() time.Duration { return time.Duration(inj.rng.ExpFloat64() * float64(mean[state])) }
	var transition func()
	transition = func() {
		if !w.on {
			return // the window closed: the chain ends
		}
		state ^= 1
		w.p = loss[state]
		inj.m.geTransitions.Inc()
		inj.sim.Schedule(dwell(), transition)
	}
	inj.open(a, b, w, start, dur, func() { inj.sim.Schedule(dwell(), transition) })
}
