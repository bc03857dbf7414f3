package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile of v (p in (0, 100]); 0 for an
// empty sample.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	i := int(math.Ceil(p/100*float64(len(s))-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median is the middle value (mean of the two middle values for an even
// count); 0 for an empty sample.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder is the percentiles a timing may be reported at, lowest first, in
// per mille so that ranks are whole-number arithmetic.
var tailLadder = []int{500, 900, 950, 990, 999}

// tailPercentile picks the highest percentile of the ladder that still has at
// least ten of n samples beyond its nearest-rank value — the highest one the
// sample supports. ok is false when even the median has fewer than ten
// samples above it.
func tailPercentile(n int) (p float64, ok bool) {
	for _, pm := range tailLadder {
		rank := (pm*n + 999) / 1000
		if n-rank < 10 {
			break
		}
		p, ok = float64(pm)/10, true
	}
	return p, ok
}

// timing is how a timed quantity is reported: its median, the highest
// percentile the sample supports, and the sample count.
type timing struct {
	Median float64 `json:"median"`
	TailP  float64 `json:"tail_p,omitempty"`
	Tail   float64 `json:"tail,omitempty"`
	N      int     `json:"n"`
}

func summarize(v []float64) timing {
	t := timing{Median: median(v), N: len(v)}
	if p, ok := tailPercentile(len(v)); ok {
		t.TailP, t.Tail = p, percentile(v, p)
	}
	return t
}

// seedMedianRate is the throughput estimator of every campaign workload:
// Σ_s work_s / Σ_s median_k t[s][k]. Each seed slot contributes the median of
// its own repeats, so a disturbance that hits fewer than half of a slot's
// repeats does not move the estimate, while keeping every slot keeps the
// breadth of inputs. times are seconds; the result is work per second.
func seedMedianRate(work []float64, times [][]float64) float64 {
	totalWork, totalTime := 0.0, 0.0
	for s := range times {
		if len(times[s]) == 0 {
			continue
		}
		totalWork += work[s]
		totalTime += median(times[s])
	}
	if totalTime == 0 {
		return 0
	}
	return totalWork / totalTime
}

// disturbance summarises how steady the host was over a run's batches:
// the batch times' p10/p50/p90 after dividing each by its seed slot's median
// (slots differ in work), and whether p90/p10 crossed the threshold that marks
// the run disturbed.
type disturbance struct {
	P10       float64 `json:"batch_p10"`
	P50       float64 `json:"batch_p50"`
	P90       float64 `json:"batch_p90"`
	Disturbed bool    `json:"disturbed"`
}

const disturbedRatio = 1.5

func disturbanceOf(times [][]float64) disturbance {
	var rel []float64
	for _, slot := range times {
		m := median(slot)
		if m == 0 {
			continue
		}
		for _, t := range slot {
			rel = append(rel, t/m)
		}
	}
	d := disturbance{P10: percentile(rel, 10), P50: percentile(rel, 50), P90: percentile(rel, 90)}
	d.Disturbed = d.P10 > 0 && d.P90/d.P10 > disturbedRatio
	return d
}

// relSpread is (q3 − q1) / median with the quartiles of Python's
// statistics.quantiles(v, n=4) (exclusive method), the spread the acceptance
// harness computes over repeated runs.
func relSpread(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := sorted(v)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	m := median(v)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / m
}
