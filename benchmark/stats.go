package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by the nearest-rank
// method: the smallest sample with at least q·n samples at or below it.
// xs is sorted in place. An empty sample yields 0.
func quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// median is the median of a small float sample (mean of the middle two for
// an even count). xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// iqm is the interquartile mean: the mean of the samples between the first
// and third quartiles (the middle half). It averages over the regimes a
// bimodal sample mixes, which a median cannot, while ignoring the outliers
// a mean would chase. xs is sorted in place.
func iqm(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	lo, hi := len(xs)/4, len(xs)-len(xs)/4
	var sum float64
	for _, x := range xs[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

// poissonSchedule returns the send offsets of an open-loop Poisson arrival
// process at rate arrivals/s over [0, dur): exponential inter-arrival gaps
// drawn from rng, so the same seed always yields the same schedule.
func poissonSchedule(rate float64, dur time.Duration, rng *rand.Rand) []time.Duration {
	if rate <= 0 || dur <= 0 {
		return nil
	}
	out := make([]time.Duration, 0, int(rate*dur.Seconds()*1.1)+16)
	var t float64 // seconds
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			return out
		}
		out = append(out, at)
	}
}

// tally counts operations for the result line's attempted/failed fields.
// A request fails when the transport errors, when any answer in it differs
// from the trie oracle, or when it is still unanswered once the drain
// timeout expires; the three causes are kept apart for the log.
type tally struct {
	attempted  int
	errors     int
	mismatches int
	unanswered int
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.errors += o.errors
	t.mismatches += o.mismatches
	t.unanswered += o.unanswered
}

func (t tally) failed() int { return t.errors + t.mismatches + t.unanswered }

// failFrac is failed over attempted operations (0 when nothing was tried).
func (t tally) failFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed()) / float64(t.attempted)
}
