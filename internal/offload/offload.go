// Package offload is experiment E9: the paper's claim that
// "sublayering offers a principled way to offload parts of TCP
// processing to hardware" (§3.1, challenge 6).
//
// No FPGA exists in this repository, so per the substitution rule the
// design question is simulated: where can the Fig. 5 stack be cut, how
// many host↔NIC bus transactions does each cut cost for a given
// workload, and how much state must be duplicated across the cut? The
// sublayered TCP counts every inter-sublayer crossing while it runs
// (sublayered.Crossings); this package turns those counts into the
// comparison table for the paper's candidate partitions.
package offload

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/transport/sublayered"
)

// Partition is one candidate hardware/software cut of the Fig. 5 stack.
type Partition int

// Candidate partitions, in increasing hardware share.
const (
	// SWOnly keeps every sublayer on the host; the bus carries raw
	// packets.
	SWOnly Partition = iota
	// NICDM offloads demultiplexing: the NIC steers per-connection
	// segments to the host (modern RSS/flow steering).
	NICDM
	// NICRDCMDM is the paper's "simple decomposition places RD, CM,
	// and DM in hardware": the bus carries the OSR↔RD interface.
	NICRDCMDM
	// NICRDOnly is "with more finagling and a modest duplication of
	// state, only RD can be placed in hardware": OSR↔RD plus CM↔RD
	// cross the bus, and CM connection state is mirrored on the NIC.
	NICRDOnly
)

// Partitions lists every candidate.
func Partitions() []Partition { return []Partition{SWOnly, NICDM, NICRDCMDM, NICRDOnly} }

func (p Partition) String() string {
	switch p {
	case SWOnly:
		return "sw-only"
	case NICDM:
		return "nic-dm"
	case NICRDCMDM:
		return "nic-rd-cm-dm"
	default:
		return "nic-rd-only"
	}
}

// HardwareSublayers names what sits on the NIC.
func (p Partition) HardwareSublayers() []string {
	switch p {
	case SWOnly:
		return nil
	case NICDM:
		return []string{"DM"}
	case NICRDCMDM:
		return []string{"DM", "CM", "RD"}
	default:
		return []string{"RD"}
	}
}

// Approximate per-connection state footprints (bytes) of each
// sublayer, used for the duplication column. The numbers are the
// actual Go struct payloads rounded; what matters for the experiment
// is their relative size and which cut forces mirroring.
const (
	stateDM  = 16   // 4-tuple and table entry
	stateCM  = 48   // FSM state, ISNs, FIN bookkeeping
	stateRD  = 160  // windows, range set, RTT estimator (plus payload copies)
	stateOSR = 2112 // buffers dominate; counted without the 64 KiB data
)

// Report is one row of the E9 table.
type Report struct {
	Partition Partition
	Hardware  []string
	// BusEvents is how many host↔NIC transactions the workload cost
	// under this cut.
	BusEvents uint64
	// BusBytes approximates payload bytes marshalled across the cut.
	BusBytes uint64
	// DuplicatedState is per-connection bytes mirrored on both sides
	// of the cut (the paper's "modest duplication of state").
	DuplicatedState int
	// Note explains the cut in the paper's terms.
	Note string
}

// Analyze computes the E9 rows from a connection's measured crossings.
// wirePackets/wireBytes describe raw packet traffic for the sw-only
// baseline (every packet crosses the host bus anyway).
func Analyze(cr sublayered.Crossings, wirePackets, wireBytes uint64) []Report {
	osrRD := cr.OSRToRD.Value() + cr.RDToOSRAck.Value() + cr.RDToOSRDat.Value() + cr.RDToOSRLos.Value()
	out := []Report{
		{
			Partition: SWOnly,
			BusEvents: wirePackets,
			BusBytes:  wireBytes,
			Note:      "baseline: every raw packet crosses the bus and every sublayer runs on the host",
		},
		{
			Partition: NICDM,
			BusEvents: cr.FromDM.Value() + cr.ToDM.Value(),
			BusBytes:  wireBytes, // payload still crosses, pre-demultiplexed
			Note:      "NIC demultiplexes; host receives per-connection segments",
		},
		{
			Partition: NICRDCMDM,
			BusEvents: osrRD + cr.CMToRD.Value(),
			BusBytes:  cr.OSRBytes.Value(),
			Note:      "paper's simple cut: bus carries the narrow OSR↔RD interface; acks and retransmissions never reach the host",
		},
		{
			Partition:       NICRDOnly,
			BusEvents:       osrRD + 2*cr.CMToRD.Value() + cr.FromDM.Value()/8,
			BusBytes:        cr.OSRBytes.Value(),
			DuplicatedState: stateCM,
			Note:            "only RD in hardware: CM runs on the host but its ISN/FIN state is mirrored on the NIC (the paper's 'modest duplication of state')",
		},
	}
	for i := range out {
		out[i].Hardware = out[i].Partition.HardwareSublayers()
	}
	return out
}

// FormatTable renders the reports as E9's table.
func FormatTable(rows []Report) string {
	sort.Slice(rows, func(i, j int) bool { return rows[i].Partition < rows[j].Partition })
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-14s %12s %12s %10s\n", "partition", "hardware", "bus events", "bus bytes", "dup state")
	for _, r := range rows {
		hw := strings.Join(r.Hardware, "+")
		if hw == "" {
			hw = "-"
		}
		fmt.Fprintf(&b, "%-14s %-14s %12d %12d %9dB\n",
			r.Partition, hw, r.BusEvents, r.BusBytes, r.DuplicatedState)
	}
	return b.String()
}
