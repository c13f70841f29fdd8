package main

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/experiments"
	"repro/internal/meanfield"
)

// sweepLambdas are the arrival rates of the fixed-point sweep. λ = 0.99 is
// left out: rebalance alone takes minutes there.
var sweepLambdas = []float64{0.5, 0.9, 0.95}

// Solver tolerance every residual must meet (meanfield.Solve's default),
// and the agreement required with the closed forms.
const (
	solveTol      = 1e-11
	closedFormTol = 1e-8
)

// sweepSpecs lists every model of experiments.FixedPointModels at every
// sweep λ. multisteal runs at T=4: the spec defaults (T=2, K=2) violate
// its T >= 2K precondition.
func sweepSpecs() []experiments.FixedPointSpec {
	var out []experiments.FixedPointSpec
	for _, m := range experiments.FixedPointModels {
		for _, l := range sweepLambdas {
			s := experiments.FixedPointSpec{Model: m, Lambda: l}
			if m == "multisteal" {
				s.T = 4
			}
			out = append(out, s)
		}
	}
	return out
}

func pointName(s experiments.FixedPointSpec) string {
	return "meanfield." + s.Model + ".l" + strconv.FormatFloat(s.Lambda, 'g', -1, 64)
}

// pointMin is how much solve time each sweep point accumulates in a
// pass: a point that solves faster is solved again. A single solve of an
// easy point takes microseconds, where timer and scheduling jitter would
// otherwise decide its rank.
const pointMin = 25 * time.Millisecond

// slowPoint marks a point whose one solve takes longer as solved for the
// run: it is timed in the first pass only. rebalance at λ = 0.95 takes
// about 13 s, three quarters of a pass, and cannot be repeated in a run.
const slowPoint = time.Second

// runFixedPointSweep is the fixedpoint-sweep workload: a closed loop on one
// goroutine, with no cache, that makes passes over the sweep points in an
// order permuted by cfg.Seed, starting passes while time remains. A
// point's time is the median of all its solves in the run, so the points
// solved in every pass — all but the slowest — are timed in stretches
// spread over the run rather than in one.
func runFixedPointSweep(cfg config) (*outcome, error) {
	o := &outcome{}
	specs := sweepSpecs()

	// Set-up builds every model and warms the solver on the easy point
	// (λ = 0.5) of each model.
	su := &setups{setup: func() error {
		for _, s := range specs {
			if _, err := s.BuildModel(); err != nil {
				return fmt.Errorf("%s: %w", pointName(s), err)
			}
			if s.Lambda == sweepLambdas[0] {
				if _, _, err := s.Solve(); err != nil {
					return fmt.Errorf("%s: %w", pointName(s), err)
				}
			}
		}
		return nil
	}}
	if err := su.batch(); err != nil {
		return nil, err
	}

	order := permutation(len(specs), cfg.Seed)
	solves := make([][]float64, len(specs)) // wall ms per solve
	cpus := make([][]float64, len(specs))   // CPU ms per solve, one per pass
	allocs := make([][]float64, len(specs)) // KiB per solve, one per pass
	done := make([]bool, len(specs))
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < cfg.Duration; pass++ {
		root := cfg.Trace.begin("fixedpoint.pass", layerHarness, noSpan, int64(pass))
		for _, i := range order {
			if done[i] {
				continue
			}
			s := specs[i]
			name := "experiments.FixedPointSpec.Solve/" + pointName(s)
			var spent time.Duration
			n := 0
			c0 := costNow()
			for first := true; first || spent < pointMin; first = false {
				sp := cfg.Trace.begin(name, layerMeanfield, root, int64(pass))
				t0 := time.Now()
				rep, _, err := s.Solve()
				el := time.Since(t0)
				cfg.Trace.end(sp)
				spent += el
				o.Attempted++
				if err != nil {
					o.Failed++
					o.problemf("%s: %v", pointName(s), err)
					solves[i] = append(solves[i], failedLatency)
					break
				}
				if len(solves[i]) == 0 {
					checkFixedPoint(o, s, rep)
				}
				solves[i] = append(solves[i], el.Seconds()*1e3)
				n++
			}
			if n > 0 {
				cpuMs, allocKiB := costNow().since(c0)
				cpus[i] = append(cpus[i], cpuMs/float64(n))
				allocs[i] = append(allocs[i], allocKiB/float64(n))
			}
			done[i] = spent > slowPoint
		}
		cfg.Trace.end(root)
	}
	// The operation is one solve. The sweep is a fixed set of unlike
	// operations, so the gated metrics are geometric means over the
	// points, which move by the average relative change of the points
	// where a percentile would jump between two of them at a gap in their
	// distribution. A point's cost is the median over the passes of its
	// cost per solve in the pass.
	pointCPU := make([]float64, len(specs))
	pointAlloc := make([]float64, len(specs))
	sweepMs := 0.0
	for i := range specs {
		pointCPU[i], pointAlloc[i] = median(cpus[i]), median(allocs[i])
		ms := median(solves[i])
		o.Op = append(o.Op, ms)
		sweepMs += ms
	}
	o.CPUPerOp, o.AllocPerOp = geoMean(pointCPU), geoMean(pointAlloc)
	o.info("solve_wall_geomean_ms", geoMean(o.Op), "ms")
	o.info("solve_wall_geotail_ms", geoTail(o.Op, 0.7), "ms")
	if err := su.batch(); err != nil {
		return nil, err
	}
	o.SetupS = su.seconds()
	o.info("solve_sweep_s", sweepMs/1e3, "s")
	o.info("solve_median_ms", median(o.Op), "ms")
	for i, s := range specs {
		o.layer(pointName(s)+".solve_ms", o.Op[i], "ms")
	}
	return o, nil
}

// checkFixedPoint records a problem when a solved point misses the solver
// tolerance or, for the models with closed forms, the closed-form tails.
func checkFixedPoint(o *outcome, s experiments.FixedPointSpec, rep experiments.FixedPointReport) {
	if !(rep.Residual <= solveTol) {
		o.problemf("%s: residual %g above the solver tolerance %g", pointName(s), rep.Residual, solveTol)
	}
	var pi func(i int) float64
	switch s.Model {
	case "nosteal":
		pi = func(i int) float64 { return meanfield.MM1Pi(s.Lambda, i) }
	case "simple":
		pi = meanfield.SolveSimpleWS(s.Lambda).Pi
	case "threshold":
		pi = meanfield.SolveThreshold(s.Lambda, s.T).Pi
	default:
		return
	}
	for i, got := range rep.Tails {
		if want := pi(i); !(math.Abs(got-want) <= closedFormTol) {
			o.problemf("%s: tail %d is %.12g, closed form %.12g", pointName(s), i, got, want)
			return
		}
	}
}

// permutation returns a Fisher–Yates shuffle of 0..n-1 drawn from seed.
func permutation(n int, seed uint64) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	x := seed
	for i := n - 1; i > 0; i-- {
		x = mix64(x)
		j := int(x % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}
