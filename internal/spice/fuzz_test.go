package spice

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzParseValue: the value parser must never panic, and every value it
// accepts must be finite.
func FuzzParseValue(f *testing.F) {
	for _, seed := range []string{"1", "1.5k", "-2e-3", "3MEG", "10u", "zzz", "", "k", "1e", "-", "1meg", "nank", "infk", "1e308k"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		v, err := ParseValue(s)
		if err != nil {
			return
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("ParseValue(%q) = %g, want a finite value or an error", s, v)
		}
	})
}

// FuzzParse: the deck parser must never panic, and every deck it accepts
// must survive a write/re-parse round trip with identical element counts.
func FuzzParse(f *testing.F) {
	f.Add("R1 a b 1\nV1 a 0 1.8\nI1 b 0 1m\n.op\n.end\n")
	f.Add("* comment only\n")
	f.Add("R1 a b\n")
	f.Add("V1 a b 1.8\n")
	f.Add("r1 N1_0_0 0 1k\n")
	f.Fuzz(func(t *testing.T, deck string) {
		nl, err := Parse(strings.NewReader(deck))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := nl.Write(&buf); err != nil {
			t.Fatalf("Write of accepted deck failed: %v", err)
		}
		back, err := Parse(&buf)
		if err != nil {
			t.Fatalf("re-parse of written deck failed: %v\ndeck: %q", err, buf.String())
		}
		if len(back.Resistors) != len(nl.Resistors) ||
			len(back.Currents) != len(nl.Currents) ||
			len(back.Voltages) != len(nl.Voltages) {
			t.Errorf("round trip changed element counts for %q", deck)
		}
	})
}
