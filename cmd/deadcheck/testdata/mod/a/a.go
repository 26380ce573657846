// Package a plants one declaration per case the gate must decide.
package a

import (
	"encoding/json"
	"strings"
)

// Used has a caller in cmd/app.
func Used() string { return strings.ToUpper(Err("x").Error()) }

// Unused has no caller anywhere.
func Unused() {}

// OnlyTested is named only by a_test.go.
func OnlyTested() int { return 1 }

// SecondOnly is named only by the second module.
func SecondOnly() {}

// Err satisfies error, json.Marshaler and encoding.TextMarshaler; none
// of its methods is called by name.
type Err string

func (e Err) Error() string                { return string(e) }
func (e Err) MarshalJSON() ([]byte, error) { return json.Marshal(string(e)) }
func (e Err) MarshalText() ([]byte, error) { return []byte(e), nil }
