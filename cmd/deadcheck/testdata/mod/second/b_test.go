package second

import (
	"testing"

	"fix/a"
)

func TestSecondOnly(t *testing.T) { a.SecondOnly() }
