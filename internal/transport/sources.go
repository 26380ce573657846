package transport

import "embed"

// Sources holds the Go files of both TCP stacks, under monolithic/ and
// sublayered/, so that experiment E6 and the sublayered stack's T3
// litmus test read the stacks' field accesses (verify.Load) without a
// source tree at run time.
//
//go:embed monolithic/*.go sublayered/*.go
var Sources embed.FS
