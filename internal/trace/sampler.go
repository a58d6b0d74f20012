package trace

import "math"

// Sampler memoizes AppProfile.At for one profile: the fast backend samples
// every core's profile several times per epoch (once per ground-truth
// sub-interval, at instruction fractions that creep forward slowly), and the
// phase in effect changes only at phase boundaries. The sampler caches the
// Stats of the phase last hit together with that phase's fraction interval;
// as long as subsequent fractions stay inside the interval, the phase-table
// scan and Stats assembly are skipped entirely. Results are bit-identical to
// calling At/MPKIAt directly — the cached Stats is the same value At would
// rebuild.
//
// A Sampler is single-goroutine state; each engine owns one per application
// (see DESIGN.md §7).
type Sampler struct {
	p     *AppProfile
	valid bool
	lo    float64 // cached phase covers fractions in [lo, hi)
	hi    float64
	stats Stats
}

// Reset points the sampler at a profile and invalidates the cache.
func (s *Sampler) Reset(p *AppProfile) {
	s.p = p
	s.valid = false
}

// Profile returns the profile the sampler reads.
func (s *Sampler) Profile() *AppProfile { return s.p }

// Holds reports whether frac lies in the memoized phase, i.e. whether At(frac)
// and MPKI(frac, ·) would answer from the cache with the phase they last
// returned. It is false until the first At after Reset.
//
//hot:path
func (s *Sampler) Holds(frac float64) bool {
	return s.valid && frac >= s.lo && frac < s.hi
}

// At returns the profile statistics in effect at instruction fraction frac,
// memoizing the containing phase. Equivalent to s.Profile().At(frac).
//
//hot:path
func (s *Sampler) At(frac float64) Stats {
	if s.Holds(frac) {
		return s.stats
	}
	p := s.p
	lo, hi := 0.0, math.Inf(1)
	if len(p.Phases) > 0 {
		// Mirror AppProfile.At exactly: fractions at or past the last
		// boundary stay in the final phase.
		idx := len(p.Phases) - 1
		for i, q := range p.Phases {
			if frac < q.Until {
				idx = i
				break
			}
		}
		if idx > 0 {
			lo = p.Phases[idx-1].Until
		}
		if idx < len(p.Phases)-1 {
			hi = p.Phases[idx].Until
		} else {
			hi = math.Inf(1) // final phase also covers frac >= last Until
		}
	}
	s.stats = p.At(frac)
	s.lo, s.hi = lo, hi
	s.valid = true
	return s.stats
}

// MPKI evaluates the miss-rate curve at cache share sh MB for the phase in
// effect at fraction frac. Equivalent to s.Profile().MPKIAt(frac, sh) but
// reuses the memoized phase multiplier.
//
//hot:path
func (s *Sampler) MPKI(frac, sh float64) float64 {
	st := s.At(frac)
	return s.p.MRC.MPKI(sh, s.p.L2APKI) * st.MemMult
}
