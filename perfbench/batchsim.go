package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// desConfig is one simulation config of the batch-sim workload.
type desConfig struct {
	Name string
	Spec experiments.SimSpec
}

// Horizon and warmup of every batch-sim replication: long enough that the
// measured utilization settles within 2% of λ, short enough that a round
// of all seven configs takes a fraction of a second.
const (
	batchHorizon = 1000
	batchWarmup  = 100
	batchLambda  = 0.9
)

// batchConfigs are the six DES configs at n=128, λ=0.9, then the hybrid
// config at n=10⁶. The H2, retry/transfer and hybrid configs make a change
// that speeds the exponential fast path at the cost of other event kinds,
// or of the hybrid engine, visible.
func batchConfigs() []desConfig {
	des := func(s experiments.SimSpec) experiments.SimSpec {
		s.N, s.Lambda, s.Horizon, s.Warmup = 128, batchLambda, batchHorizon, batchWarmup
		return s
	}
	return []desConfig{
		{"steal", des(experiments.SimSpec{Policy: "steal", T: 2})},
		{"steal-half", des(experiments.SimSpec{Policy: "steal", T: 2, Half: true})},
		{"choices", des(experiments.SimSpec{Policy: "steal", T: 2, D: 2})},
		{"nosteal", des(experiments.SimSpec{Policy: "none"})},
		{"h2", des(experiments.SimSpec{Policy: "steal", T: 2, Service: workload.ServiceSpec{Dist: "h2", SCV: 4}})},
		{"retry-transfer", des(experiments.SimSpec{Policy: "steal", T: 2, Retry: 1, Transfer: 0.5})},
		{"hybrid", experiments.SimSpec{Engine: "hybrid", N: 1_000_000, Tracked: 256, Lambda: batchLambda,
			Policy: "steal", T: 2, Horizon: batchHorizon, Warmup: batchWarmup}},
	}
}

const hybridConfig = "hybrid"

// resultDigest is the part of a sim.Result the golden digest covers: every
// count and estimate, but not the sojourn percentiles, which are NaN (and
// so not JSON) unless a sojourn histogram was requested.
type resultDigest struct {
	MeanSojourn float64         `json:"mean_sojourn"`
	Measured    int64           `json:"measured"`
	MeanLoad    float64         `json:"mean_load"`
	Arrived     int64           `json:"arrived"`
	Completed   int64           `json:"completed"`
	End         float64         `json:"end"`
	Metrics     metrics.Metrics `json:"metrics"`
}

func digestResult(r sim.Result) (string, error) {
	return digest(resultDigest{r.MeanSojourn, r.Measured, r.MeanLoad, r.Arrived, r.Completed, r.End, r.Metrics})
}

// runBatchSim is the batch-sim workload: a closed loop on one goroutine
// that runs one replication of each config per round on a warmed
// sim.Runner, each round on seeds derived from cfg.Seed.
func runBatchSim(cfg config) (*outcome, error) {
	o := &outcome{}
	cfgs := batchConfigs()
	opts := make([]sim.Options, len(cfgs))
	spanNames := make([]string, len(cfgs))
	for i, c := range cfgs {
		op, err := c.Spec.Options()
		if err != nil {
			return nil, fmt.Errorf("config %s: %w", c.Name, err)
		}
		opts[i] = op
		spanNames[i] = "sim.Runner.Run/" + c.Name
	}

	// Set-up builds a Runner and warms it with one run of every config at
	// the golden seed, which doubles as the determinism check.
	var runner *sim.Runner
	golden := make([]sim.Result, len(cfgs))
	su := &setups{setup: func() error {
		runner = &sim.Runner{}
		for i := range cfgs {
			op := opts[i]
			op.Seed = spec.BatchSim.GoldenSeed
			res, err := runner.Run(op)
			if err != nil {
				return fmt.Errorf("config %s: %w", cfgs[i].Name, err)
			}
			golden[i] = res
		}
		return nil
	}}
	if err := su.batch(); err != nil {
		return nil, err
	}
	for i, c := range cfgs {
		want, ok := spec.BatchSim.Golden[c.Name]
		d, err := digestResult(golden[i])
		if err != nil {
			return nil, fmt.Errorf("config %s: digest: %w", c.Name, err)
		}
		if !ok || want.Events != golden[i].Metrics.Events || want.Digest != d {
			o.problemf("batch-sim %s at seed %d: events %d digest %s, spec.json records events %d digest %s",
				c.Name, spec.BatchSim.GoldenSeed, golden[i].Metrics.Events, d, want.Events, want.Digest)
		}
	}

	type acc struct {
		events, attempts, successes int64
		loopS, util                 float64   // summed over replications
		reps                        []float64 // wall seconds per replication
	}
	accs := make([]acc, len(cfgs))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	c0 := costNow()
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < cfg.Duration; round++ {
		root := cfg.Trace.begin("batch.round", layerHarness, noSpan, int64(round))
		t0 := time.Now()
		for i := range cfgs {
			op := opts[i]
			op.Seed = deriveSeed(cfg.Seed, uint64(round), uint64(i))
			sp := cfg.Trace.begin(spanNames[i], layerSim, root, int64(round))
			r0 := time.Now()
			res, err := runner.Run(op)
			wall := time.Since(r0).Seconds()
			cfg.Trace.end(sp)
			o.Attempted++
			if err != nil {
				o.Failed++
				o.problemf("batch-sim %s round %d: %v", cfgs[i].Name, round, err)
				continue
			}
			a := &accs[i]
			a.events += res.Metrics.Events
			a.loopS += res.Metrics.WallSeconds
			a.util += res.Metrics.Utilization
			a.attempts += res.Metrics.StealAttempts
			a.successes += res.Metrics.StealSuccesses
			a.reps = append(a.reps, wall)
		}
		o.Op = append(o.Op, time.Since(t0).Seconds()*1e3)
		cfg.Trace.end(root)
	}
	cpuMs, allocKiB := costNow().since(c0)
	wall := time.Since(start)
	runtime.ReadMemStats(&ms1)
	if err := su.batch(); err != nil {
		return nil, err
	}
	o.SetupS = su.seconds()

	// Utilization converges to λ as the measured time grows; one H2
	// replication of 900 time units strays past 2% now and then, so the
	// check is on each config's mean over the run's replications.
	for i, c := range cfgs {
		if n := len(accs[i].reps); n > 0 {
			if u := accs[i].util / float64(n); math.Abs(u-batchLambda) > 0.02*batchLambda {
				o.problemf("batch-sim %s: mean utilization %.4f over %d replications not within 2%% of λ=%g", c.Name, u, n, batchLambda)
			}
		}
	}

	var desEvents int64
	var desLoop float64
	for i, c := range cfgs {
		if c.Name == hybridConfig {
			continue
		}
		desEvents += accs[i].events
		desLoop += accs[i].loopS
	}
	var allEvents int64
	for i := range cfgs {
		allEvents += accs[i].events
	}
	// The operation is one round, a replication of every config.
	rounds := float64(len(o.Op))
	o.CPUPerOp, o.AllocPerOp = cpuMs/rounds, allocKiB/rounds
	o.info("round_wall_ms", wall.Seconds()*1e3/rounds, "ms")
	o.info("cpu_busy", cpuMs/1e3/wall.Seconds(), "cores")
	o.info("des_ns_per_event", desLoop/float64(desEvents)*1e9, "ns")
	o.info("hybrid_rep_s", median(accs[len(cfgs)-1].reps), "s")

	for i, c := range cfgs {
		a := accs[i]
		ratio := 0.0
		if a.attempts > 0 {
			ratio = float64(a.successes) / float64(a.attempts)
		}
		prefix := "sim." + c.Name
		o.layer(prefix+".ns_per_event", a.loopS/float64(a.events)*1e9, "ns")
		o.layer(prefix+".events", float64(golden[i].Metrics.Events), "count")
		if c.Name == hybridConfig {
			o.layer(prefix+".bulk_steals", float64(golden[i].Metrics.BulkSteals), "count")
		} else {
			o.layer(prefix+".steal_success_ratio", ratio, "fraction")
		}
	}
	o.layer("sim.allocs_per_event", float64(ms1.Mallocs-ms0.Mallocs)/float64(allEvents), "count")
	return o, nil
}

// deriveSeed mixes the run seed with a round and a config index into an
// independent replication seed (splitmix64 finalizer over the combination).
func deriveSeed(seed uint64, parts ...uint64) uint64 {
	x := seed
	for _, p := range parts {
		x = mix64(x ^ mix64(p+0x9e3779b97f4a7c15))
	}
	if x == 0 {
		x = 1
	}
	return x
}

func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
