// Command perfbench is the repository's benchmark: one command that runs a
// named workload from a seed, checks that every output it produced is
// correct, and prints the workload's metrics by name with their units.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the run measures the end-to-end metrics with tracing off.
// With --trace 1 it makes an untraced and a traced pass of the same
// workload, each for half the time, and prints the per-layer metrics: the
// layer probes, each layer's self time per operation from the spans the
// traced pass recorded around the benchmark's calls into the repository's
// packages, and the tracing overhead (the traced pass's end-to-end numbers
// minus the untraced pass's, and the ratio of their cpu_ms_per_op). No
// end-to-end number is taken from a traced pass.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it name every
// metric of the workload, including those only this workload defines. A
// failed correctness check makes the run exit 1. See perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// maxProcs caps GOMAXPROCS and every worker count: the benchmark is sized
// for a 2-vCPU machine and must not change shape on a larger one.
const maxProcs = 2

// A workload times its set-up in two batches, one before the timed part
// and one after it, and reports the mean of the two batch medians as
// setup_s. Each batch sets up at least minSetups times and until it has
// spent setupBatch, so a set-up of milliseconds is repeated hundreds of
// times; two batches twenty seconds apart see more of the machine's slow
// and fast spells than one. The batches are summarized apart because a
// set-up after the timed part can be systematically faster (warm code and
// heap), and the median of the two pooled would then sit on the gap
// between them. The set-up the timed part uses is the last of the first
// batch.
const (
	minSetups  = 4
	setupBatch = time.Second
)

// setups times a workload's set-up. teardown, when non-nil, runs untimed
// before every set-up but the first, to release what the previous one
// built.
type setups struct {
	teardown func()
	setup    func() error
	medians  []float64 // seconds, one per batch
}

// batch runs one batch of set-ups.
func (s *setups) batch() error {
	var times []float64
	var spent time.Duration
	for k := 0; k < minSetups || spent < setupBatch; k++ {
		if s.teardown != nil && (k > 0 || len(s.medians) > 0) {
			s.teardown()
		}
		t0 := time.Now()
		if err := s.setup(); err != nil {
			return err
		}
		el := time.Since(t0)
		spent += el
		times = append(times, el.Seconds())
	}
	s.medians = append(s.medians, median(times))
	return nil
}

// seconds is setup_s: the mean of the batch medians.
func (s *setups) seconds() float64 { return mean(s.medians) }

// config is what a workload run receives.
type config struct {
	Seed     uint64
	Duration time.Duration // how long the timed part measures
	Procs    int           // GOMAXPROCS, ≤ maxProcs; also the worker cap
	Trace    *tracer       // nil when untraced
}

// metric is one named number with its unit.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// outcome is what one pass of a workload measured.
type outcome struct {
	SetupS float64 // median set-up time
	// CPUPerOp and AllocPerOp are cpu_ms_per_op and alloc_kib_per_op, the
	// processor time and heap allocation of one of the workload's
	// operations (perfbench/README.md defines the operation of each). Op
	// holds the operations' wall-clock latencies, ms, for the printed
	// summary.
	CPUPerOp, AllocPerOp float64
	Op                   []float64
	PeakHeap             float64 // MiB, filled in by measure
	// Info holds the workload's own end-to-end metrics under the names
	// perfbench/README.md gives them; Layers its per-layer metrics, which
	// are printed only from a traced pass.
	Info   []metric
	Layers []metric
	// Attempted counts operations; Failed those that failed. A request the
	// server refused under overload is not a failure (the refusal is the
	// admission control working); it is reported in reject_frac and
	// counts as +Inf latency.
	Attempted, Failed int
	// Problems lists failed correctness checks.
	Problems []string
}

func (o *outcome) problemf(format string, args ...any) {
	o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
}

func (o *outcome) info(name string, v float64, unit string) {
	o.Info = append(o.Info, metric{name, v, unit})
}

func (o *outcome) layer(name string, v float64, unit string) {
	o.Layers = append(o.Layers, metric{name, v, unit})
}

// workloads maps each workload name to its run function.
var workloads = map[string]func(cfg config) (*outcome, error){
	"batch-sim":        runBatchSim,
	"fixedpoint-sweep": runFixedPointSweep,
	"serve-open":       runServeOpen,
	"cluster-steal":    runClusterSteal,
}

// endToEnd returns the gated end-to-end metrics of a pass, in the order
// BENCHMARK.json lists them.
func endToEnd(o *outcome) []metric {
	return []metric{
		{"setup_s", o.SetupS, "s"},
		{"cpu_ms_per_op", o.CPUPerOp, "ms"},
		{"alloc_kib_per_op", o.AllocPerOp, "KiB"},
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 20, "how long the timed part of the run measures")
	traceFlag := fs.Int("trace", 0, "1: print per-layer metrics from a traced run instead of end-to-end metrics")
	capacity := fs.Bool("capacity", false, "measure the serve-open mix at a ladder of offered rates, --seconds each, instead of running a workload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*name]
	if *capacity {
		*name, ok = "capacity", true
	}
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	procs := runtime.NumCPU()
	if procs > maxProcs {
		procs = maxProcs
	}
	runtime.GOMAXPROCS(procs)
	cfg := config{Seed: *seed, Duration: time.Duration(*seconds) * time.Second, Procs: procs}

	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%d trace=%d\n", *name, *seed, *seconds, *traceFlag)
	here := thisMachine(procs)
	fmt.Fprintf(stdout, "# machine %s\n", here)
	if m := spec.TunedOn; m == here {
		fmt.Fprintf(stdout, "# the bounds in BENCHMARK.json were tuned on a machine of this kind\n")
	} else {
		fmt.Fprintf(stdout, "# the bounds in BENCHMARK.json were tuned on %s; numbers from here compare only with each other\n", m)
	}

	if *capacity {
		if err := runCapacity(cfg, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: capacity: %v\n", err)
			return 1
		}
		return 0
	}
	var res result
	var err error
	if *traceFlag == 0 {
		res, err = untracedRun(fn, cfg, stdout)
	} else {
		res, err = tracedRun(fn, cfg, *name, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure runs one pass of a workload with the heap sampler around it.
func measure(fn func(config) (*outcome, error), cfg config) (*outcome, error) {
	runtime.GC()
	hs := startHeapSampler()
	o, err := fn(cfg)
	peak := hs.stop()
	if err != nil {
		return nil, err
	}
	o.PeakHeap = peak
	return o, nil
}

func untracedRun(fn func(config) (*outcome, error), cfg config, w io.Writer) (result, error) {
	o, err := measure(fn, cfg)
	if err != nil {
		return result{}, err
	}
	e2e := endToEnd(o)
	printMetrics(w, "end_to_end", e2e)
	printMetrics(w, "workload", append([]metric{{"peak_heap_mb", o.PeakHeap, "MiB"}}, o.Info...))
	printTiming(w, o)
	for _, m := range o.Info {
		if math.IsNaN(m.Value) {
			return result{}, fmt.Errorf("%s: too few samples; the run is too short for its offered rates", m.Name)
		}
	}
	return finish(o, e2e)
}

// tracedRun makes an untraced and a traced pass, each for half the time,
// runs the layer probes, and reports per-layer metrics. The pass order
// follows the seed's parity (odd seeds trace first), so that across seeds
// warm-up and drift land on both sides of the overhead.
func tracedRun(fn func(config) (*outcome, error), cfg config, name string, w io.Writer) (result, error) {
	half := cfg
	half.Duration = cfg.Duration / 2
	tracedFirst := cfg.Seed%2 == 1
	var base, o *outcome
	var tr *tracer
	for _, traced := range []bool{tracedFirst, !tracedFirst} {
		c := half
		if traced {
			tr = newTracer()
			c.Trace = tr
		}
		out, err := measure(fn, c)
		if err != nil {
			return result{}, err
		}
		if traced {
			o = out
		} else {
			base = out
		}
	}
	fmt.Fprintf(w, "# passes: traced first: %v\n", tracedFirst)
	spans := tr.snapshot()
	path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", name, cfg.Seed))
	if err := writeSpans(path, spans); err != nil {
		return result{}, err
	}
	fmt.Fprintf(w, "# spans: %d written to %s\n", len(spans), path)

	baseE2E, tracedE2E := endToEnd(base), endToEnd(o)
	printMetrics(w, "end_to_end.untraced", baseE2E)
	printMetrics(w, "workload.untraced", base.Info)
	printMetrics(w, "end_to_end.traced", tracedE2E)
	var overhead []metric
	for i, m := range tracedE2E {
		overhead = append(overhead, metric{"trace.overhead." + m.Name, m.Value - baseE2E[i].Value, m.Unit})
	}
	printMetrics(w, "tracing_overhead", overhead)

	self := selfTimes(spans)
	calls := layerCalls(spans)
	var selfMs []metric
	for _, l := range traceLayers {
		selfMs = append(selfMs, metric{"self_ms." + l, float64(self[l]) / 1e6, "ms"})
	}
	printMetrics(w, "self_time", selfMs)
	printMetrics(w, "workload_layers", o.Layers)
	printPredictions(w, name)

	probes := runProbes(cfg.Seed)
	var gated []metric
	gated = append(gated, probes...)
	for _, l := range traceLayers {
		gated = append(gated,
			metric{"layer." + l + ".self_ms_per_op", float64(self[l]) / 1e6 / float64(o.Attempted), "ms"},
			metric{"layer." + l + ".calls", float64(calls[l]), "count"})
	}
	gated = append(gated,
		metric{"trace.spans", float64(len(spans)), "count"},
		metric{"trace.overhead_ratio", o.CPUPerOp / base.CPUPerOp, "ratio"})
	printMetrics(w, "per_layer", gated)

	merged := *o
	merged.Attempted += base.Attempted
	merged.Failed += base.Failed
	merged.Problems = append(append([]string(nil), base.Problems...), o.Problems...)
	return finish(&merged, gated)
}

// printPredictions prints the layer predictions of spec.json that name the
// workload: which end-to-end metric a change to each layer should move
// here, and where no change is predicted.
func printPredictions(w io.Writer, workload string) {
	for _, p := range spec.Predictions {
		for _, m := range p.ShouldMove {
			if strings.HasPrefix(m, workload+":") {
				fmt.Fprintf(w, "# prediction: %s moves %s\n", p.Layer, m)
			}
		}
		for _, m := range p.NoChange {
			if strings.HasPrefix(m, workload+":") {
				fmt.Fprintf(w, "# prediction: %s leaves %s unchanged\n", p.Layer, m)
			}
		}
	}
}

// finish assembles the result line, refusing numbers JSON cannot carry.
func finish(o *outcome, ms []metric) (result, error) {
	for _, p := range o.Problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	res := result{Correct: len(o.Problems) == 0, Attempted: o.Attempted, Failed: o.Failed,
		Metrics: make(map[string]metricValue, len(ms))}
	if res.Attempted < 1 {
		return result{}, fmt.Errorf("no operation was attempted")
	}
	for _, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return result{}, fmt.Errorf("metric %s is %v: the run measured too little, or more than a tenth of its gated operations failed", m.Name, m.Value)
		}
		res.Metrics[m.Name] = metricValue{m.Value, m.Unit}
	}
	return res, nil
}

func printMetrics(w io.Writer, group string, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(w, "%-20s %-44s %14.6g %s\n", group, m.Name, m.Value, m.Unit)
	}
}

func printTiming(w io.Writer, o *outcome) {
	fmt.Fprintf(w, "# operation wall-clock latency: %s\n", summarize(o.Op))
	fmt.Fprintf(w, "# attempted %d, failed %d\n", o.Attempted, o.Failed)
}
