package transport

import "testing"

func TestStateStrings(t *testing.T) {
	for s, want := range map[State]string{
		StateClosed:      "CLOSED",
		StateEstablished: "ESTABLISHED",
		StateTimeWait:    "TIME_WAIT",
		State(-1):        "State(-1)",
		State(99):        "State(99)",
	} {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}
