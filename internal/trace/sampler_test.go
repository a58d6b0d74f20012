package trace

import (
	"math"
	"testing"
)

// TestSamplerHolds pins the predicate the engine's ground-truth memo rests
// on: Holds(frac) is true exactly when frac lies in the phase At last
// returned, with each phase half-open at its Until boundary and the final
// phase also covering fractions past the last boundary.
func TestSamplerHolds(t *testing.T) {
	p := &AppProfile{
		Name: "three-phase", CPIBase: 1, L2APKI: 10,
		Phases: []Phase{
			{Until: 0.25, MemMult: 1, CPIMult: 1},
			{Until: 0.5, MemMult: 2, CPIMult: 1},
			{Until: 1, MemMult: 3, CPIMult: 1},
		},
	}
	var s Sampler
	s.Reset(p)
	if s.Holds(0) {
		t.Fatal("Holds before any At")
	}
	s.At(0.3) // the middle phase, [0.25, 0.5)
	for _, c := range []struct {
		frac float64
		want bool
	}{
		{0.25, true},
		{0.3, true},
		{math.Nextafter(0.5, 0), true},
		{0.5, false},
		{math.Nextafter(0.25, 0), false},
		{0, false},
		{0.9, false},
	} {
		if got := s.Holds(c.frac); got != c.want {
			t.Errorf("middle phase: Holds(%v) = %v, want %v", c.frac, got, c.want)
		}
		if c.want && s.At(c.frac) != p.At(c.frac) {
			t.Errorf("Holds(%v) but At differs from AppProfile.At", c.frac)
		}
	}
	s.At(0.75) // the final phase also covers frac >= 1
	for _, frac := range []float64{0.5, 0.99, 1, 1.5} {
		if !s.Holds(frac) {
			t.Errorf("final phase: Holds(%v) = false", frac)
		}
	}
	if s.Holds(math.Nextafter(0.5, 0)) {
		t.Error("final phase holds a fraction of the middle phase")
	}
	s.Reset(p)
	if s.Holds(0.75) {
		t.Error("Holds after Reset")
	}

	var flat Sampler
	flat.Reset(&AppProfile{Name: "flat", CPIBase: 1, L2APKI: 10})
	flat.At(0.4)
	for _, frac := range []float64{0, 0.4, 1} {
		if !flat.Holds(frac) {
			t.Errorf("flat profile: Holds(%v) = false", frac)
		}
	}
}
