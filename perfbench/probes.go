package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/eventq"
	"repro/internal/meanfield"
	"repro/internal/ode"
	"repro/internal/rng"
)

// The layer probes time single calls into the innermost layers, apart
// from any workload, so a traced run of every workload reports them. Each
// probe repeats its measurement probeRepeats times and reports the median.
const probeRepeats = 5

// sink keeps the compiler from discarding probe results.
var sink float64

// runProbes returns the eventq, rng and ode probe metrics.
func runProbes(seed uint64) []metric {
	push, pop := probeEventQ(seed)
	exp, bounded := probeRNG(seed)
	return []metric{
		{"eventq.push_ns", push, "ns"},
		{"eventq.popmin_ns", pop, "ns"},
		{"rng.exp_ns", exp, "ns"},
		{"rng.bounded_ns", bounded, "ns"},
		{"ode.rk4_step_ns.simple", probeRK4(meanfield.NewSimpleWS(0.5)), "ns"},
		{"ode.rk4_step_ns.stages", probeRK4(meanfield.NewStages(0.95, 10, 2)), "ns"},
	}
}

// Hold-model tape for the calendar queue: the queue holds `size` pending
// events; each step pops the earliest and pushes it back at its time plus
// an exponential gap of mean 1 — one event per processor in flight, as in
// a DES of `size` processors. The sizes match the batch-sim DES (n=128)
// and the hybrid tracked sample (256).
var tapeSizes = []int{128, 256}

const (
	tapeSteps = 1 << 18 // hold steps per size
	tapeBlock = 64      // operations timed together; at most the smallest size
)

// probeEventQ replays the hold tape through eventq.Calendar and returns
// the mean ns per Push and per PopMin.
func probeEventQ(seed uint64) (pushNs, popNs float64) {
	src := rng.New(seed)
	gaps := make([]float64, tapeSteps)
	for i := range gaps {
		gaps[i] = src.Exp(1)
	}
	var pushes, pops []float64
	for r := 0; r < probeRepeats; r++ {
		var pushT, popT time.Duration
		for _, size := range tapeSizes {
			q := eventq.NewCalendar(size)
			for i := 0; i < size; i++ {
				q.Push(eventq.Event{Time: gaps[i], Proc: int32(i)})
			}
			popped := make([]eventq.Event, tapeBlock)
			for step := 0; step < tapeSteps; step += tapeBlock {
				t0 := time.Now()
				for j := range popped {
					popped[j] = q.PopMin()
				}
				t1 := time.Now()
				for j := range popped {
					e := popped[j]
					e.Time += gaps[step+j]
					q.Push(e)
				}
				pushT += time.Since(t1)
				popT += t1.Sub(t0)
			}
		}
		n := float64(tapeSteps * len(tapeSizes))
		pushes = append(pushes, float64(pushT.Nanoseconds())/n)
		pops = append(pops, float64(popT.Nanoseconds())/n)
	}
	return median(pushes), median(pops)
}

const rngDraws = 1 << 21

// probeRNG returns the mean ns of rng.Source.Exp and rng.Bounded.Next (over
// 128 processors, the batch-sim victim sampler).
func probeRNG(seed uint64) (expNs, boundedNs float64) {
	src := rng.New(seed)
	b := rng.NewBounded(128)
	var exps, bs []float64
	for r := 0; r < probeRepeats; r++ {
		t0 := time.Now()
		s := 0.0
		for i := 0; i < rngDraws; i++ {
			s += src.Exp(1)
		}
		t1 := time.Now()
		k := 0
		for i := 0; i < rngDraws; i++ {
			k += b.Next(src)
		}
		t2 := time.Now()
		sink += s + float64(k)
		exps = append(exps, float64(t1.Sub(t0).Nanoseconds())/rngDraws)
		bs = append(bs, float64(t2.Sub(t1).Nanoseconds())/rngDraws)
	}
	return median(exps), median(bs)
}

const rk4Steps = 1 << 12

// probeRK4 returns the mean ns of one ode.RK4 step of m's Derivs from its
// initial state. Simple at λ=0.5 has the smallest state of the sweep (46
// components), stages at λ=0.95 the largest (2070).
func probeRK4(m core.Model) float64 {
	x := m.Initial()
	f := m.Derivs
	scratch := ode.NewRK4Scratch(len(x))
	var ts []float64
	for r := 0; r < probeRepeats; r++ {
		t0 := time.Now()
		for i := 0; i < rk4Steps; i++ {
			ode.RK4(f, x, 0.01, scratch)
		}
		ts = append(ts, float64(time.Since(t0).Nanoseconds())/rk4Steps)
	}
	sink += x[0]
	return median(ts)
}
