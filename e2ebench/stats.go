package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"coscale/internal/sim"
)

// beyondMin is the number of samples a reported percentile must have above
// it: a tail figure resting on fewer slow samples than this is noise.
const beyondMin = 10

// minSamples returns how many samples percentile q needs before it has
// beyondMin samples beyond it.
func minSamples(q float64) int {
	// Rounded first: 1 - 0.9 is not exactly a tenth.
	return int(math.Ceil(math.Round(beyondMin/(1-q)*1e6) / 1e6))
}

// percentile returns the nearest-rank q-quantile of sorted samples, or an
// error when fewer than beyondMin samples lie beyond it.
func percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", q*100)
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if beyond := n - 1 - idx; q > 0.5 && beyond < beyondMin {
		return 0, fmt.Errorf("p%g of %d samples has only %d beyond it (need %d)", q*100, n, beyond, beyondMin)
	}
	return sorted[idx], nil
}

// dist is a set of timing samples in nanoseconds.
type dist []float64

func (d *dist) add(ns float64) { *d = append(*d, ns) }

// since records the time elapsed since start.
func (d *dist) since(start time.Time) { d.add(float64(time.Since(start).Nanoseconds())) }

// quantiles returns the median and the q-quantile, scaled by 1/unit
// (time.Millisecond for milliseconds, and so on).
func (d dist) quantiles(q float64, unit time.Duration) (p50, pq float64, err error) {
	s := append([]float64(nil), d...)
	sort.Float64s(s)
	if p50, err = percentile(s, 0.5); err != nil {
		return 0, 0, err
	}
	if pq, err = percentile(s, q); err != nil {
		return 0, 0, err
	}
	u := float64(unit.Nanoseconds())
	return p50 / u, pq / u, nil
}

// median returns the median scaled by 1/unit.
func (d dist) median(unit time.Duration) (float64, error) {
	p50, _, err := d.quantiles(0.5, unit)
	return p50, err
}

// median of plain values (not durations).
func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	v, _ := percentile(s, 0.5)
	return v
}

// digest is an FNV-1a hash over the exact bits of simulated outputs: two
// runs with equal digests produced bit-identical numbers.
type digest uint64

func newDigest() digest { return 14695981039346656037 }

func (d *digest) u64(x uint64) {
	for i := 0; i < 8; i++ {
		*d ^= digest(x & 0xff)
		*d *= 1099511628211
		x >>= 8
	}
}

func (d *digest) f64(x float64) { d.u64(math.Float64bits(x)) }

func (d *digest) str(s string) {
	d.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		*d ^= digest(s[i])
		*d *= 1099511628211
	}
}

// result folds every simulated statistic of a run into the digest.
func (d *digest) result(r *sim.Result) {
	d.str(r.Policy)
	d.str(r.Mix)
	d.u64(uint64(r.Epochs))
	d.f64(r.WallTime)
	d.f64(r.Energy.CPU)
	d.f64(r.Energy.L2)
	d.f64(r.Energy.Mem)
	d.f64(r.Energy.Rest)
	d.u64(r.TotalInstructions)
	for _, a := range r.Apps {
		d.str(a.App)
		d.u64(a.Instructions)
		d.f64(a.FinishTime)
	}
}

func (d digest) String() string { return fmt.Sprintf("%016x", uint64(d)) }

// sameResult reports whether two runs are Float64bits-identical.
func sameResult(a, b *sim.Result) bool {
	da, db := newDigest(), newDigest()
	da.result(a)
	db.result(b)
	return da == db
}

// slowdowns returns each program's slowdown of run against base.
func slowdowns(run, base *sim.Result) []float64 {
	out := make([]float64, len(run.Apps))
	for i := range out {
		out[i] = run.Apps[i].FinishTime/base.Apps[i].FinishTime - 1
	}
	return out
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
