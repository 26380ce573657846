// Package overlay builds application-layer protocols on top of the
// stack-agnostic transport.Conn seam — the first consumers of either
// TCP implementation that are not bulk byte-stream flows. Three tiers
// share one node/runtime core:
//
//   - Node (node.go) is the runtime every tier rides: framed messages
//     over transport.Conn with a versioned codec (codec.go), dial-on-
//     demand connection management, and a request/response RPC layer
//     with per-attempt timeouts, jittered-backoff retries, duplicate
//     suppression and deadline-miss accounting. This IS the RPC tier;
//     the other two are built from its Call/Cast primitives.
//   - DHT (dht.go) is a Kademlia-style distributed hash table: 160-bit
//     node IDs derived from member addresses, k-buckets, and iterative
//     FIND_NODE/STORE/GET lookups with per-lookup hop counts.
//   - Gossip (gossip.go) is an epidemic pub-sub layer: rumor push with
//     bounded fanout plus periodic anti-entropy digest exchange, with
//     per-rumor arrival stamps so convergence time is measurable.
//
// Everything is event-driven: state machines advance only inside
// backend timers and connection callbacks, never goroutines, so the
// identical overlay code runs deterministically on "sim" and
// "sharded:N" (byte-identical results at any GOMAXPROCS — each node's
// state is touched only from its own shard) and in wall time on the
// "chan" and "udp" backends. Per-node randomness (gossip peer choice,
// retry jitter) comes from node-local seeded RNGs, never the backend's
// shared source, so shard placement cannot perturb a decision.
//
// Run (scenario.go) takes an N-member ring with one stack per node
// from harness.BuildCluster (internal/transport/harness/cluster.go)
// and runs one overlay cell: a tier workload under a fault scenario
// (the E10 vocabulary: bursty loss, partition+heal, and member churn
// as RouterPause windows), with
// lookup hops, convergence ticks, deadline-miss rates and messages/op
// folded into a deterministic Result. Experiment E13 matrixes this
// over {stack × tier × scenario}; docs/OVERLAYS.md carries the
// protocol specs and the invariants E13 asserts.
package overlay
