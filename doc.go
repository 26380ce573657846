// Package repro is a from-scratch Go reproduction of "If Layering is
// useful, why not Sublayering?" (HotNets '24): the sublayering
// framework and its three litmus tests, sublayered data-link, network
// and transport (TCP) layers, the RFC 793 interop shim, a monolithic
// lwIP-style TCP baseline, the verified bit-stuffing experiment, and a
// deterministic network simulator underneath it all.
//
// Start with README.md for the tour, DESIGN.md for the system
// inventory, and EXPERIMENTS.md for every regenerated table.
//
// This root package holds only documentation; the library lives under
// internal/.
package repro
