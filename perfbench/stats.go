package main

import (
	"fmt"
	"math"
	"sort"
)

// Latency samples are milliseconds measured from a request's due time. A
// failed or refused request enters the samples as +Inf, so it misses every
// latency limit and pushes every percentile it reaches to +Inf.
var failedLatency = math.Inf(1)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it: with fewer, the value is one or two outliers.
const minBeyond = 10

// tailLadder lists the percentiles tailPercentile chooses from, lowest
// first.
var tailLadder = []float64{0.5, 0.75, 0.9, 0.95, 0.99, 0.999}

// percentile returns the nearest-rank p-quantile of xs (0 < p <= 1): the
// smallest sample with at least a p share of the samples at or below it.
// It sorts a copy, so xs is left as it was. An empty xs gives NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)]
}

// rank is the 0-based nearest-rank index of the p-quantile of n samples.
func rank(n int, p float64) int {
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// beyond is the number of samples that lie above the p-quantile of n.
func beyond(n int, p float64) int { return n - 1 - rank(n, p) }

// tailPercentile returns the highest percentile of tailLadder that has at
// least minBeyond of n samples beyond it, or 0 when even the median has
// fewer.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if beyond(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// reported is the p-quantile of xs for a metric whose percentile is
// fixed by its name (sim_p90_ms), or NaN when fewer than minBeyond
// samples lie beyond it: the number would then describe a handful of
// requests.
func reported(xs []float64, p float64) float64 {
	if beyond(len(xs), p) < minBeyond {
		return math.NaN()
	}
	return percentile(xs, p)
}

// timing is a latency summary in the benchmark's reporting rule: the
// median, the highest percentile with at least minBeyond samples beyond
// it, and the sample count.
type timing struct {
	N      int
	P50    float64
	TailP  float64 // the percentile Tail reports, e.g. 0.9
	Tail   float64
	Failed int // samples that are +Inf
}

func summarize(xs []float64) timing {
	t := timing{N: len(xs), P50: percentile(xs, 0.5), TailP: tailPercentile(len(xs))}
	if t.TailP > 0 {
		t.Tail = percentile(xs, t.TailP)
	} else {
		t.Tail = math.NaN()
	}
	for _, x := range xs {
		if math.IsInf(x, 1) {
			t.Failed++
		}
	}
	return t
}

func (t timing) String() string {
	return fmt.Sprintf("p50 %.4g ms, p%g %.4g ms, n=%d, failed=%d", t.P50, t.TailP*100, t.Tail, t.N, t.Failed)
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the arithmetic mean of xs, NaN when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// geoMean returns the geometric mean of xs (positive; +Inf stays +Inf),
// NaN when empty. Over a fixed set of unlike operations it moves by the
// average relative change of its members, where the median would jump
// between members at a gap in their distribution.
func geoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// geoTail returns the geometric mean of the samples of xs at or beyond
// their nearest-rank p-quantile, NaN when xs is empty.
func geoTail(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return geoMean(s[rank(len(s), p):])
}

// backlogSample is the number of requests issued but not yet answered at
// an offset of At seconds into an offered-rate phase.
type backlogSample struct {
	At      float64
	Pending int
}

// backlogGrowing reports whether the backlog grew over a phase: the
// least-squares slope of pending against time, times the phase length,
// exceeds both 5 requests and a tenth of the requests offered in the
// phase. A server keeping up holds a backlog that wobbles around a
// constant; one that falls behind accumulates about (offered − served)·t.
func backlogGrowing(samples []backlogSample, offered int) bool {
	if len(samples) < 2 {
		return false
	}
	var mt, mp float64
	for _, s := range samples {
		mt += s.At
		mp += float64(s.Pending)
	}
	n := float64(len(samples))
	mt /= n
	mp /= n
	var sxy, sxx float64
	for _, s := range samples {
		sxy += (s.At - mt) * (float64(s.Pending) - mp)
		sxx += (s.At - mt) * (s.At - mt)
	}
	if sxx == 0 {
		return false
	}
	span := samples[len(samples)-1].At - samples[0].At
	growth := sxy / sxx * span
	return growth > 5 && growth > 0.1*float64(offered)
}

// rateOutcome is what maxRate needs from one offered-rate phase.
type rateOutcome struct {
	Rate    float64 // offered requests per second
	SimP90  float64 // ms; +Inf when more than a tenth of sims failed
	HitP99  float64 // ms
	Growing bool    // backlog grew over the phase
}

// latencyLimit is the service-level objective max_rate_rps is judged by.
type latencyLimit struct {
	SimP90Ms float64 `json:"sim_p90_ms"`
	HitP99Ms float64 `json:"fp_hit_p99_ms"`
}

// meets reports whether a phase kept the latency limit without a growing
// backlog.
func (l latencyLimit) meets(o rateOutcome) bool {
	return !o.Growing && o.SimP90 <= l.SimP90Ms && o.HitP99 <= l.HitP99Ms
}

// maxRate returns the highest offered rate whose phase met the limit, or 0
// when none did.
func maxRate(phases []rateOutcome, lim latencyLimit) float64 {
	best := 0.0
	for _, o := range phases {
		if lim.meets(o) && o.Rate > best {
			best = o.Rate
		}
	}
	return best
}
