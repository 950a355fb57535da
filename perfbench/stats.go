package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles a tail may resolve to, highest
// first. A tail is the highest of them with at least minBeyond samples
// above it, so it is never an extrapolation from a handful of points.
var tailLadder = []float64{99.9, 99.5, 99, 98, 95, 90, 80, 75, 50}

// minBeyond is how many samples must lie beyond a tail percentile.
const minBeyond = 10

// quantile returns the p-th percentile (0–100) of xs by linear
// interpolation between order statistics (the "type 7" estimator).
// xs need not be sorted; an empty input gives NaN.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedQuantile(s, p)
}

func sortedQuantile(s []float64, p float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	h := p / 100 * float64(len(s)-1)
	lo := math.Floor(h)
	i := int(lo)
	if i >= len(s)-1 || h == lo {
		return s[i]
	}
	return s[i] + (h-lo)*(s[i+1]-s[i])
}

// median is quantile(xs, 50).
func median(xs []float64) float64 { return quantile(xs, 50) }

// tailPercentile returns the highest ladder percentile with at least
// minBeyond of n samples beyond it. Below 2*minBeyond samples no ladder
// rung qualifies and the median (50) is returned; callers report the
// resolved percentile next to the value, so that case is visible.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		// The epsilon absorbs the rounding in 100-p (100-99.9 is just
		// under 0.1 in binary floating point).
		if float64(n)*(100-p)/100 >= minBeyond-1e-9 {
			return p
		}
	}
	return 50
}

// summary is a timing distribution as the result reports it.
type summary struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50"`
	Tail    float64 `json:"tail"`
	TailPct float64 `json:"tail_pct"`
	Max     float64 `json:"max"`
}

// summarize computes the median, the resolved tail and the maximum.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	p := tailPercentile(len(s))
	return summary{
		N:       len(s),
		P50:     sortedQuantile(s, 50),
		Tail:    sortedQuantile(s, p),
		TailPct: p,
		Max:     s[len(s)-1],
	}
}

// backlogGrew reports whether an open-loop phase ended with more jobs
// outstanding than it started with, beyond what the scheduler's slots
// hold in flight at once. start and end are backlog means over a window
// at each end of the phase. A system that keeps up ends with a queue
// that comes and goes; one that does not ends with a backlog that has
// been climbing for the whole phase.
func backlogGrew(start, end float64, slots int) bool {
	return end > start+float64(slots)
}

// lateness returns how late each send was against its due time, in
// milliseconds. An early send (never produced by the generator, which
// sleeps until due) counts as zero.
func lateness(dueMS, sentMS []float64) []float64 {
	out := make([]float64, len(dueMS))
	for i := range dueMS {
		out[i] = math.Max(0, sentMS[i]-dueMS[i])
	}
	return out
}
