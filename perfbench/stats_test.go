package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(100) // 1..100
	for _, c := range []struct{ p, want float64 }{
		{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Errorf("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Errorf("percentile of no samples is not NaN")
	}
}

func TestBeyondAndTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n     int
		tailP float64
	}{
		{10, 0}, {21, 0.5}, {39, 0.5}, {40, 0.75}, {100, 0.9}, {199, 0.9}, {200, 0.95}, {1000, 0.99}, {10000, 0.999},
	} {
		if got := tailPercentile(c.n); got != c.tailP {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.tailP)
		}
		if c.tailP > 0 && beyond(c.n, c.tailP) < minBeyond {
			t.Errorf("n=%d: only %d samples beyond p%g", c.n, beyond(c.n, c.tailP), c.tailP*100)
		}
	}
	if got := beyond(100, 0.9); got != 10 {
		t.Errorf("beyond(100, 0.9) = %d, want 10", got)
	}
}

func TestReportedNeedsTenBeyond(t *testing.T) {
	if v := reported(seq(99), 0.9); !math.IsNaN(v) {
		t.Errorf("p90 of 99 samples (9 beyond) = %g, want NaN", v)
	}
	if v := reported(seq(100), 0.9); v != 90 {
		t.Errorf("p90 of 100 samples = %g, want 90", v)
	}
}

// A failed or refused request is +Inf: it pushes every percentile it
// reaches to +Inf and so misses any latency limit.
func TestFailuresEnterAsInfinity(t *testing.T) {
	xs := seq(100)
	for i := 0; i < 10; i++ {
		xs[i] = failedLatency // the ten slowest become failures
	}
	if v := percentile(xs, 0.9); v != 90 {
		t.Errorf("p90 with 10%% failures = %g, want 90 (the failures lie beyond it)", v)
	}
	xs[10] = failedLatency
	if v := percentile(xs, 0.9); !math.IsInf(v, 1) {
		t.Errorf("p90 with 11%% failures = %g, want +Inf", v)
	}
	ts := summarize(xs)
	if ts.Failed != 11 || ts.N != 100 {
		t.Errorf("summarize counted %d failed of %d, want 11 of 100", ts.Failed, ts.N)
	}
	lim := latencyLimit{SimP90Ms: 1e9, HitP99Ms: 1e9}
	if lim.meets(rateOutcome{SimP90: percentile(xs, 0.9), HitP99: 1}) {
		t.Errorf("an infinite p90 met a finite latency limit")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median(3,1,2) = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median(4,1,3,2) = %g", m)
	}
}

func TestGeoMean(t *testing.T) {
	if g := geoMean([]float64{1, 100}); math.Abs(g-10) > 1e-12 {
		t.Errorf("geoMean(1, 100) = %g, want 10", g)
	}
	if g := geoMean([]float64{1, failedLatency}); !math.IsInf(g, 1) {
		t.Errorf("geoMean with a failure = %g, want +Inf", g)
	}
	if !math.IsNaN(geoMean(nil)) {
		t.Errorf("geoMean of no samples is not NaN")
	}
}

func TestGeoTail(t *testing.T) {
	want := 0.0
	for x := 30.0; x <= 40; x++ {
		want += math.Log(x)
	}
	if v := geoTail(seq(40), 0.74); math.Abs(v-math.Exp(want/11)) > 1e-9 {
		t.Errorf("geometric tail of 1..40 = %g, want the geometric mean of 30..40", v)
	}
	if !math.IsNaN(geoTail(nil, 0.7)) {
		t.Errorf("geometric tail of no samples is not NaN")
	}
}

func ramp(n int, slope, noise float64) []backlogSample {
	out := make([]backlogSample, n)
	for i := range out {
		at := float64(i) * 0.05
		wobble := noise
		if i%2 == 1 {
			wobble = -noise
		}
		out[i] = backlogSample{At: at, Pending: int(math.Round(3 + slope*at + wobble))}
	}
	return out
}

func TestBacklogGrowing(t *testing.T) {
	// 10 s at 50 ms: a steady backlog of ~3 that wobbles by ±2.
	if backlogGrowing(ramp(200, 0, 2), 2000) {
		t.Errorf("a steady backlog was judged growing")
	}
	// Falling behind by 40 req/s over 10 s leaves ~400 pending.
	if !backlogGrowing(ramp(200, 40, 2), 2000) {
		t.Errorf("a backlog growing by 40 req/s was not judged growing")
	}
	// Growth below a tenth of the offered requests is a wobble, not a trend.
	if backlogGrowing(ramp(200, 1.5, 0), 2000) {
		t.Errorf("growth of 15 requests over 2000 offered was judged growing")
	}
	if backlogGrowing(nil, 10) || backlogGrowing(ramp(1, 100, 0), 10) {
		t.Errorf("too few samples were judged growing")
	}
}

func TestMaxRate(t *testing.T) {
	lim := latencyLimit{SimP90Ms: 100, HitP99Ms: 10}
	phases := []rateOutcome{
		{Rate: 100, SimP90: 20, HitP99: 1},
		{Rate: 200, SimP90: 60, HitP99: 5},
		{Rate: 800, SimP90: math.Inf(1), HitP99: 30},
	}
	if got := maxRate(phases, lim); got != 200 {
		t.Errorf("maxRate = %g, want 200", got)
	}
	phases[1].Growing = true
	if got := maxRate(phases, lim); got != 100 {
		t.Errorf("maxRate with a growing backlog at 200 = %g, want 100", got)
	}
	phases[1].Growing = false
	phases[1].HitP99 = 11
	if got := maxRate(phases, lim); got != 100 {
		t.Errorf("maxRate with fp-hit p99 over the limit at 200 = %g, want 100", got)
	}
	phases[0].SimP90 = math.NaN()
	if got := maxRate(phases, lim); got != 0 {
		t.Errorf("maxRate with no phase meeting the limit = %g, want 0", got)
	}
}

func TestSetupsAverageBatchMedians(t *testing.T) {
	// Each set-up takes a quarter of a batch's time budget and a little
	// more, so a batch makes exactly minSetups of them.
	built, torn := 0, 0
	su := &setups{teardown: func() { torn++ }, setup: func() error {
		built++
		time.Sleep(setupBatch/minSetups + time.Millisecond)
		return nil
	}}
	for i := 0; i < 2; i++ {
		if err := su.batch(); err != nil {
			t.Fatal(err)
		}
	}
	if built != 2*minSetups || torn != built-1 || len(su.medians) != 2 {
		t.Fatalf("%d set-ups, %d teardowns, %d batch medians: want %d set-ups, each but the first preceded by a teardown, and 2 medians",
			built, torn, len(su.medians), 2*minSetups)
	}
	su.medians = []float64{0.2, 0.4}
	if s := su.seconds(); math.Abs(s-0.3) > 1e-15 {
		t.Errorf("setup_s of batch medians 0.2 and 0.4 = %g, want 0.3", s)
	}
}
