package dist

import "testing"

// Hooks for the external tests (package dist_test). Those may import
// internal/wire, whose envelope codec imports this package, so a test of an
// offer's trip through the codec cannot be an internal one.

// FlightOffer is flightOffer.
var FlightOffer = flightOffer

// NewTestMatchmaker is newTestMatchmaker over a fresh stub sender. Its
// second result waits for n prepares and returns each one's answer by
// node.
func NewTestMatchmaker(t *testing.T) (*Matchmaker, func(n int) map[string]Answer) {
	s := newStubSender()
	m, _ := newTestMatchmaker(t, s)
	return m, func(n int) map[string]Answer {
		out := make(map[string]Answer)
		for _, ev := range s.await(t, "prepare", n) {
			out[ev.node] = ev.prepare.Ans
		}
		return out
	}
}
