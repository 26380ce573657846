// Ccswap: the paper's §3 fungibility claim for the transport — swap
// congestion control and connection management (three-way handshake
// with two ISN generators ⇄ Watson's timer-based scheme) without
// touching DM, RD or each other. The congestion-control axis comes
// straight from the ccontrol registry: every registered controller is
// a candidate by name, selected through sublayered.Config.CC rather
// than a hand-rolled constructor table, so a controller added anywhere
// in the tree shows up here with zero changes.
//
//	go run ./examples/ccswap            # every controller × every CM
//	go run ./examples/ccswap -cc cubic  # one controller × every CM
package main

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/ccontrol"
	"repro/internal/netsim"
	"repro/internal/transport/harness"
	"repro/internal/transport/sublayered"
)

func main() {
	ccFlag := flag.String("cc", "all",
		`congestion controller by registry name, or "all" for every registered one`)
	flag.Parse()

	ccs := ccontrol.Names()
	if *ccFlag != "all" {
		if _, err := ccontrol.New(*ccFlag, ccontrol.Config{}); err != nil {
			fmt.Fprintf(os.Stderr, "ccswap: %v\n", err)
			os.Exit(2)
		}
		ccs = []string{*ccFlag}
	}

	cms := []struct{ label, name string }{
		{"handshake/rfc1948", sublayered.CMHandshake},
		{"handshake/rfc793 ", sublayered.CMClockHandshake},
		{"timer/watson     ", sublayered.CMWatson},
	}

	data := make([]byte, 150_000)
	rand.New(rand.NewSource(1)).Read(data)

	fmt.Printf("same 150 KB transfer, same 4%%-loss path, every CC × CM combination\n")
	fmt.Printf("(CC axis = ccontrol registry: %v):\n", ccontrol.Names())
	fmt.Printf("%-12s %-19s %-8s %s\n", "congestion", "connection-mgmt", "intact", "virtual-time")
	for _, cc := range ccs {
		for _, cm := range cms {
			w := harness.BuildWorld(harness.WorldConfig{
				Seed:   11,
				Link:   netsim.LinkConfig{Delay: 2 * time.Millisecond, LossProb: 0.04, ReorderProb: 0.04},
				Client: harness.KindSublayeredNative,
				Server: harness.KindSublayeredNative,
				SubCfg: sublayered.Config{CC: cc, CM: cm.name},
			})
			res, err := harness.RunTransfer(w, data, nil, time.Hour)
			if err != nil {
				panic(err)
			}
			w.Close()
			fmt.Printf("%-12s %-19s %-8v %v\n", cc, cm.label,
				bytes.Equal(res.ServerGot, data),
				res.Elapsed.Truncate(time.Millisecond))
		}
	}
	fmt.Printf("\n%d combinations, zero code changed outside the swapped sublayer (T3).\n", len(ccs)*len(cms))
	fmt.Println("timer-based rows start a round-trip sooner: no handshake to wait for.")
}
