package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rng"
)

// arrivalTimes returns the arrival offsets of a Poisson process of the
// given rate (per second) on [0, dur), conditioned on its expected count
// round(rate·dur): given its count, a Poisson process places its arrivals
// as independent uniform times. Fixing the count keeps the sample sizes,
// and so the percentile ranks, the same in every run; the seed moves only
// where the arrivals fall.
func arrivalTimes(src *rng.Source, rate float64, dur time.Duration) []time.Duration {
	n := int(math.Round(rate * dur.Seconds()))
	if n <= 0 {
		return nil
	}
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(src.Float64() * float64(dur))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// evenTimes returns round(rate·dur) offsets on [0, dur), one every 1/rate
// seconds.
func evenTimes(rate float64, dur time.Duration) []time.Duration {
	n := int(math.Round(rate * dur.Seconds()))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return out
}

// shot is one scheduled request of an open loop: its due offset from the
// start of the loop and an opaque index into the caller's request table.
type shot struct {
	Due   time.Duration
	Index int
}

// sortShots orders a schedule by due time, ties by index, so that a seed
// always yields the same sequence.
func sortShots(s []shot) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].Due != s[j].Due {
			return s[i].Due < s[j].Due
		}
		return s[i].Index < s[j].Index
	})
}

// loopResult is what the generator itself measured.
type loopResult struct {
	LagMs   []float64       // how late each request was issued, ms
	Backlog []backlogSample // pending requests over time
	Elapsed time.Duration   // from start to the last completion
}

// backlogEvery is the period of the backlog sampler.
const backlogEvery = 50 * time.Millisecond

// openLoop issues every shot at its due time, regardless of how many
// earlier requests are still outstanding, each on its own goroutine, and
// returns once all have completed. do receives the shot and its due
// instant; latency is measured from that instant, so a stall in the system
// or in the generator counts against every request it delayed. The
// schedule is finite, which bounds the goroutines. sample, when non-nil,
// is called every backlogEvery from one goroutine, and never after
// openLoop returns.
func openLoop(shots []shot, do func(s shot, due time.Time), sample func()) loopResult {
	var res loopResult
	var issued, completed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()

	stop := make(chan struct{})
	var samplerDone sync.WaitGroup
	samplerDone.Add(1)
	go func() {
		defer samplerDone.Done()
		t := time.NewTicker(backlogEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				res.Backlog = append(res.Backlog, backlogSample{At: time.Since(start).Seconds(),
					Pending: int(issued.Load() - completed.Load())})
				if sample != nil {
					sample()
				}
			}
		}
	}()

	res.LagMs = make([]float64, 0, len(shots))
	for _, s := range shots {
		due := start.Add(s.Due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		res.LagMs = append(res.LagMs, float64(time.Since(due).Nanoseconds())/1e6)
		issued.Add(1)
		wg.Add(1)
		go func(s shot) {
			defer wg.Done()
			do(s, due)
			completed.Add(1)
		}(s)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	close(stop)
	samplerDone.Wait()
	return res
}
