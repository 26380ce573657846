package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/metrics"
	"repro/internal/stuffing"
	"repro/internal/transport"
	"repro/internal/verify"
)

// E5Stuffing reproduces §4.1, the paper's most quantitative result:
// the verified bit-stuffing rule library and the overhead comparison
// (HDLC 1 in 32 vs the alternate rule's 1 in 128 under the paper's
// random model).
func E5Stuffing(Config) *Result {
	res := &Result{
		ID:     "E5",
		Title:  "§4.1 verified bit stuffing: rule library and overhead",
		Header: []string{"rule", "naive-overhead", "exact-markov", "empirical", "valid"},
	}
	hdlc, low := stuffing.HDLC(), stuffing.LowOverhead()
	lib := stuffing.Library(8)
	show := []struct {
		name string
		r    stuffing.Rule
	}{
		{"HDLC (flag 01111110, stuff 0 after 11111)", hdlc},
		{"paper's best (flag 00000010, stuff 1 after 0000001)", low},
		{"library cheapest: " + lib[0].String(), lib[0]},
	}
	for _, s := range show {
		res.Rows = append(res.Rows, []string{
			s.name,
			fmt.Sprintf("1/%.0f", 1/s.r.NaiveOverhead()),
			fmt.Sprintf("1/%.1f", 1/s.r.MarkovOverhead()),
			fmt.Sprintf("1/%.1f", 1/s.r.EmpiricalOverhead(1<<17, 7)),
			fmt.Sprintf("%v", s.r.Validate() == nil),
		})
	}
	cheaperThanHDLC := 0
	hOv := hdlc.MarkovOverhead()
	for _, r := range lib {
		if r.MarkovOverhead() < hOv {
			cheaperThanHDLC++
		}
	}
	ce, ok := hdlc.CheckExhaustive(12)
	_ = ce
	var reg verify.Registry
	stuffing.RegisterLemmas(&reg, hdlc, 9)
	lemmaFails := len(reg.RunAll())
	// E5 has no simulated world; its metrics are the verification
	// outcomes themselves, so the run report still carries one snapshot
	// per experiment.
	mreg := metrics.New()
	sc := mreg.Scope("stuffing")
	var gLemmas, gFails, gRules, gCheaper, gExhaustive metrics.Gauge
	gLemmas.Set(int64(reg.Len()))
	gFails.Set(int64(lemmaFails))
	gRules.Set(int64(len(lib)))
	gCheaper.Set(int64(cheaperThanHDLC))
	if ok {
		gExhaustive.Set(1)
	}
	sc.Register("lemmas", &gLemmas)
	sc.Register("lemma_failures", &gFails)
	sc.Register("library_rules", &gRules)
	sc.Register("cheaper_than_hdlc", &gCheaper)
	sc.Register("exhaustive_roundtrip_ok", &gExhaustive)
	res.Metrics = mreg.Snapshot()
	res.Notes = append(res.Notes,
		fmt.Sprintf("executable lemma library: %d lemmas per rule across modules %s, %d failures (paper's Coq proof: 57 lemmas, 1800 LoC)", reg.Len(), strings.Join(reg.Modules(), "/"), lemmaFails),
		fmt.Sprintf("paper: 1/32 (HDLC) vs 1/128 (alternate) under the random model — reproduced exactly by the naive column"),
		fmt.Sprintf("rule library for 8-bit flags: %d valid rules (%d cheaper than HDLC); the paper's family found 66 — its candidate family is unspecified, so counts differ while the claim (many valid alternates, some cheaper) reproduces", len(lib), cheaperThanHDLC),
		fmt.Sprintf("round-trip spec Unstuff(RemoveFlags(AddFlags(Stuff(D))))=D verified exhaustively to 12 bits (%v) and by the exact product-automaton decision procedure for all lengths", ok),
	)
	return res
}

// e6Stacks is E6's handler table: the functions of each stack that
// are entry points in the default configuration (HandshakeCM; TimerCM
// is E8's swap-in) — segment arrival, application write and close,
// transmission and the timers — and the scope of its frames. The
// variables are the fields of per-connection state: per-host structs
// (both Stacks, DM's table) would make every handler pair share the
// clock and the config. connParts, the bundle of timer callbacks and
// parts a connection borrows from its stack, is the host's too: a
// pointer to it navigates, like one to the Stack. dmConn, DM's
// per-connection half, is state and a sublayer of its own. cmCore, the
// half both connection managers share, is state but no sublayer, so a
// handler's walk follows into its methods; litmus is the extra
// sublayer set the T3 note reads it under.
var e6Stacks = []struct {
	name     string
	scope    verify.Scope
	litmus   []string
	handlers []string
	cc       string // the variable holding the congestion controller
}{
	{
		name:  "monolithic",
		scope: verify.Scope{State: []string{"PCB"}, Host: []string{"Stack"}},
		handlers: []string{
			"Stack.tcpInput", "Stack.tcpProcess", "Stack.tcpReceive",
			"PCB.Write", "PCB.Close", "PCB.tcpOutput",
			"PCB.onRexmitTimer", "PCB.rollbackAndRetransmit",
		},
		cc: "PCB.cc",
	},
	{
		name: "sublayered",
		scope: verify.Scope{
			State:     []string{"Conn", "dmConn", "HandshakeCM", "cmCore", "RD", "OSR"},
			Host:      []string{"Stack", "DM", "connParts"},
			Sublayers: []string{"DM", "dmConn", "HandshakeCM", "TimerCM", "RD", "OSR"},
		},
		litmus: []string{"DM", "dmConn", "cmCore", "RD", "OSR"},
		handlers: []string{
			"DM.receive", "dmConn.transmit",
			"HandshakeCM.open", "HandshakeCM.onSegment", "cmCore.peerStreamComplete",
			"cmCore.closeWrite", "cmCore.streamFinished",
			"RD.Established", "RD.SetRemoteFin", "RD.Send", "RD.onData", "RD.onAck", "RD.onRTO",
			"OSR.write", "OSR.closeWrite", "OSR.pump", "OSR.onAcked", "OSR.onLoss",
			"OSR.deliver", "OSR.setStreamEnd", "OSR.onPeerHeader",
		},
		cc: "OSR.cc",
	},
}

// E6Entanglement reproduces §4.2's lessons quantitatively: read each
// handler's frame — the per-connection variables it reads and writes —
// from the Go source of the monolithic and sublayered TCPs, and
// compare the entanglement the paper blames for verification
// difficulty. It runs no workload.
func E6Entanglement(Config) *Result {
	res := &Result{
		ID:     "E6",
		Title:  "§4.2 entanglement: monolithic PCB vs segregated sublayers",
		Header: []string{"implementation", "handlers", "vars", "shared-vars", "multi-writer", "interaction-pairs", "of-max", "cc-handlers", "cc-blast"},
	}
	mreg := metrics.New()
	var edges, blasts []string
	crossings := 0
	for _, st := range e6Stacks {
		src, err := verify.Load(transport.Sources, st.name, st.scope)
		if err != nil {
			panic(fmt.Sprintf("E6: %v", err))
		}
		fr, err := src.Frames(st.handlers)
		if err != nil {
			panic(fmt.Sprintf("E6: %v", err))
		}
		crossings += len(src.CrossSublayer())
		if st.litmus != nil {
			again, err := verify.Load(transport.Sources, st.name, verify.Scope{Sublayers: st.litmus})
			if err != nil {
				panic(fmt.Sprintf("E6: %v", err))
			}
			crossings += len(again.CrossSublayer())
		}
		edges = append(edges, fmt.Sprintf("%s %d %v", st.name, len(fr.Edges()), fr.Edges()))
		// The CC swap question: both stacks hold the controller in one
		// variable; its blast radius is the state a reviewer
		// re-examines when the controller changes.
		e, b := fr.Entanglement(), fr.Blast(st.cc)
		blasts = append(blasts, fmt.Sprintf("%s %s → %d handlers, %d co-touched vars (%s)",
			st.name, st.cc, len(b.Handlers), len(b.CoTouched), strings.Join(b.Handlers, " ")))
		row := []string{st.name}
		for _, n := range []int{e.Handlers, e.Vars, e.SharedVars, e.WriteShared, e.InteractionPairs, e.MaxPairs, len(b.Handlers), len(b.CoTouched)} {
			row = append(row, strconv.Itoa(n))
		}
		res.Rows = append(res.Rows, row)
		var gh, gt metrics.Gauge
		gh.Set(int64(len(b.Handlers)))
		gt.Set(int64(len(b.CoTouched)))
		sc := mreg.Scope("blast").Sub(st.name)
		sc.Register("cc_handlers", &gh)
		sc.Register("cc_cotouched", &gt)
	}
	res.Metrics = mreg.Snapshot()
	res.Notes = append(res.Notes,
		"frames read from the Go source (go/types), no workload: a handler's frame covers the functions it reaches by static calls in its own package (Conn and Stack glue included); the walk stops at another sublayer's method and at interface calls, and calls into other packages (ccontrol.Controller, seg buffers) are not followed; a variable is a field of per-connection state (monolithic PCB; sublayered Conn, dmConn, HandshakeCM, cmCore, RD, OSR) that is not a navigation pointer, an instrument or a callback; assigning it, ++/--, &x or calling a method on it writes it",
		"monolithic handlers all reach the PCB's shared helpers (tcpOutput, sendSegment, armRexmit), so interaction pairs approach the O(N²) ceiling; Conn holds no sublayered variable, every sublayered variable two handlers share belongs to both handlers' own sublayer (CM's handlers sharing cmCore's), and pair density stays well below the ceiling — the paper's conjecture, measured from the code",
		"interface edges where the walks stopped: "+strings.Join(edges, "; "),
		fmt.Sprintf("T3 litmus: %d fields of one sublayer read or written by another sublayer's methods (sublayered read twice: as DM, dmConn, HandshakeCM, TimerCM, RD, OSR, then with cmCore, both managers' shared half, beside DM, dmConn, RD, OSR)", crossings),
		"cc blast radius (state co-touched by every handler that touches the controller): "+strings.Join(blasts, "; "))
	return res
}
