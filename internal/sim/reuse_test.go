package sim

import (
	"fmt"
	"testing"

	"repro/internal/dist"
)

// The tests in this file pin the engine-reuse contract introduced with the
// global scheduler: a Runner recycled across arbitrary configurations must
// produce results bit-identical to a fresh engine, and the recycled
// steady-state path must not allocate per event.

// reuseVariants exercises every optional subsystem the reset path must
// clear: samplers, histograms, series, transfer queues, rebalancing, and
// heterogeneous classes — in sizes that both grow and shrink the proc
// slice across consecutive runs.
func reuseVariants() []Options {
	return []Options{
		{N: 64, Lambda: 0.9, Service: dist.NewExponential(1), Policy: PolicySteal, T: 2,
			Horizon: 200, Warmup: 20, Seed: 11},
		{N: 16, Lambda: 0.8, Service: dist.NewDeterministic(1), Policy: PolicyNone,
			Horizon: 150, Warmup: 0, Seed: 12, TailDepth: 8, QueueHistDepth: 6},
		{N: 32, Lambda: 0.9, Service: dist.NewExponential(1), Policy: PolicySteal, T: 4,
			TransferRate: 0.25, RetryRate: 2, Horizon: 200, Warmup: 20, Seed: 13,
			SojournHistMax: 200, SeriesEvery: 10},
		{N: 48, Lambda: 0.85, Service: dist.NewExponential(1), Policy: PolicyRebalance,
			RebalanceRate: 2, Horizon: 150, Warmup: 15, Seed: 14},
		{N: 24, Service: dist.NewExponential(1), Policy: PolicySteal, T: 2, Half: true,
			InitialLoad: 6, Horizon: 500, Warmup: 0, Seed: 15},
		{N: 40, Service: dist.NewExponential(1), Policy: PolicySteal, T: 2, D: 2,
			Horizon: 200, Warmup: 20, Seed: 16,
			Classes: []Class{{Frac: 0.75, Lambda: 0.9, Rate: 1}, {Frac: 0.25, Lambda: 0.5, Rate: 0.5}}},
	}
}

// resultKey renders the deterministic content of a Result (fmt tolerates
// the NaN quantiles that DeepEqual would reject); wall-clock throughput
// fields are zeroed first.
func resultKey(r Result) string {
	r.Metrics.WallSeconds = 0
	r.Metrics.EventsPerSec = 0
	return fmt.Sprintf("%+v", r)
}

// TestRunnerReuseMatchesFresh runs every variant twice — once on a fresh
// engine, once on one Runner shared (and therefore dirtied) across all
// variants — and demands identical results. This is what makes per-worker
// engine caching safe in the scheduler.
func TestRunnerReuseMatchesFresh(t *testing.T) {
	var shared Runner
	// Two passes over the variants so each configuration also follows
	// *itself* plus every other shape at least once.
	for pass := 0; pass < 2; pass++ {
		for i, o := range reuseVariants() {
			if err := (Replication{Reps: 1}).Validate(&o); err != nil {
				t.Fatalf("variant %d: %v", i, err)
			}
			var fresh Runner
			want := resultKey(fresh.RunRep(o, 3))
			got := resultKey(shared.RunRep(o, 3))
			if got != want {
				t.Errorf("pass %d variant %d: reused engine diverges from fresh engine", pass, i)
			}
		}
	}
}

// TestRunnerRunMatchesReplication checks the exported Runner.Run entry
// point (validate + seed stream directly) against the one-shot Run.
func TestRunnerRunMatchesReplication(t *testing.T) {
	o := reuseVariants()[0]
	want, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	var r Runner
	r.RunRep(o, 0) // dirty the engine first
	got, err := r.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if resultKey(got) != resultKey(want) {
		t.Error("Runner.Run diverges from Run on a reused engine")
	}
}

// measureAllocs reports (allocations per run, events per run) for the
// steady-state reuse path of opts — the engine is warmed first so buffer
// growth is excluded, exactly like replications 2..R of a scheduled cell.
func measureAllocs(t *testing.T, o Options) (allocsPerRun, eventsPerRun float64) {
	t.Helper()
	if err := (Replication{Reps: 1}).Validate(&o); err != nil {
		t.Fatal(err)
	}
	var r Runner
	r.RunRep(o, 1) // warm: allocate engine, grow every buffer
	events := r.RunRep(o, 1).Metrics.Events
	avg := testing.AllocsPerRun(5, func() {
		r.RunRep(o, 1)
	})
	return avg, float64(events)
}

// TestSteadyStateAllocsPerEvent is the zero-alloc regression gate: on the
// reuse path the event loop itself must not allocate. The engine still
// makes a handful of per-run allocations for the Result's escaping slices
// (per-proc metrics, samplers' outputs), so the budget is a small constant
// per run plus ~zero per event — a per-steal or per-arrival allocation
// sneaking back in blows the per-event bound by orders of magnitude.
func TestSteadyStateAllocsPerEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement under -short")
	}
	// The per-run budget covers exactly the Result's escaping slices
	// (PerProc and friends) — with the calendar queue, arena-backed
	// deques, and batched RNG, the event loop itself contributes zero.
	// The DES configs sat at 16 before the calendar queue; past 6 means a
	// per-event or per-steal allocation crept back into the hot path. The
	// hybrid engine adds its fluid state and RK4 scratch per run (14 at
	// N 4096, Tracked 64). A per-event allocation in the shared
	// tracked-processor core blows the per-event bound of either engine
	// by orders of magnitude.
	const maxPerEvent = 0.001
	cases := []struct {
		name      string
		opts      Options
		maxPerRun float64
	}{
		{"steal K=1", Options{N: 64, Lambda: 0.9, Service: dist.NewExponential(1),
			Policy: PolicySteal, T: 2, Horizon: 300, Warmup: 0, Seed: 1}, 6},
		{"steal half", Options{N: 64, Lambda: 0.9, Service: dist.NewExponential(1),
			Policy: PolicySteal, T: 2, Half: true, Horizon: 300, Warmup: 0, Seed: 1}, 6},
		{"hybrid steal", Options{Engine: EngineHybrid, N: 4096, Tracked: 64, Lambda: 0.9,
			Service: dist.NewExponential(1), Policy: PolicySteal, T: 2, Horizon: 300, Warmup: 0, Seed: 1}, 14},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			perRun, events := measureAllocs(t, c.opts)
			if events < 1000 {
				t.Fatalf("run too small to measure: %v events", events)
			}
			perEvent := perRun / events
			t.Logf("%s: %.1f allocs/run over %.0f events = %.5f allocs/event",
				c.name, perRun, events, perEvent)
			if perRun > c.maxPerRun {
				t.Errorf("allocs per run = %.1f, want <= %.0f", perRun, c.maxPerRun)
			}
			if perEvent > maxPerEvent {
				t.Errorf("allocs per event = %.5f, want <= %.2f", perEvent, maxPerEvent)
			}
		})
	}
}
