package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cliutil"
	"repro/internal/experiments"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/serve"
)

// Request classes of the serve-open traffic mix.
const (
	classHit   = iota // a hot fixed-point key, cached after set-up
	classMiss         // a fixed-point key never asked before
	classSim          // a simulate request with a seed never asked before
	classBurst        // one of burst_size identical simulate requests sent at once
	numClasses
)

var classNames = [numClasses]string{"fp_hit", "fp_miss", "sim_miss", "burst"}

// Offered-rate phases, run in this order.
var phaseNames = []string{"low", "nominal", "overload"}

// loadPhase is one offered-rate phase of a serve-open schedule.
type loadPhase struct {
	Name string
	Rate float64 // offered requests per second
	Dur  time.Duration
}

// servePhases returns the phases of a run of dur: each offers its
// rates_rps for its phase_share of dur.
func servePhases(dur time.Duration) []loadPhase {
	var out []loadPhase
	for _, pn := range phaseNames {
		out = append(out, loadPhase{pn, spec.ServeOpen.RatesRPS[pn], time.Duration(spec.ServeOpen.Phases[pn] * float64(dur))})
	}
	return out
}

// hotKeys are the fixed-point requests the fp-hit class draws from.
var hotKeys = []experiments.FixedPointSpec{
	{Model: "simple", Lambda: 0.9},
	{Model: "threshold", Lambda: 0.8, T: 3},
	{Model: "choices", Lambda: 0.7},
	{Model: "nosteal", Lambda: 0.9},
	{Model: "stealhalf", Lambda: 0.85},
	{Model: "repeated", Lambda: 0.75},
	{Model: "spawning", Lambda: 0.6},
	{Model: "preemptive", Lambda: 0.9, B: 1, T: 3},
}

// missModels are the models fp-miss requests draw from: those of
// experiments.FixedPointModels that solve in under ~35 ms for λ in
// [0.5, 0.9]. stages and rebalance take a second at λ = 0.9, transfer and
// repeated-transfer ~90 ms; each of those would hold a processor long
// enough to decide the simulate tail of the seeds that draw it.
// multisteal carries T=4, as in the sweep.
var missModels = []string{"nosteal", "simple", "threshold", "preemptive", "repeated", "choices",
	"multisteal", "stealhalf", "spawning"}

// simSpec is the sim-miss (and burst) request: DES n=32 at λ=0.9, horizon
// 2000, two replications; only the seed varies.
func simSpec(seed uint64) experiments.SimSpec {
	return experiments.SimSpec{N: 32, Lambda: 0.9, Horizon: 2000, Reps: 2, Seed: seed}
}

// handlerSpan names the span around a handler call by request path.
var handlerSpan = map[string]string{
	"/v1/fixedpoint": "serve.Handler.ServeHTTP /v1/fixedpoint",
	"/v1/simulate":   "serve.Handler.ServeHTTP /v1/simulate",
}

// serveRequest is one request of the generated schedule.
type serveRequest struct {
	Phase int
	Class int
	Path  string
	Body  []byte
	Burst int // burst id for classBurst, -1 otherwise
}

// serveResponse is what the generator observed for one request.
type serveResponse struct {
	Status    int
	Body      []byte
	LatencyMs float64
}

// genServeSchedule builds the requests and per-phase schedules of a run
// from seed alone. Each phase offers its rate for its duration, split
// across the classes by the mix.
func genServeSchedule(seed uint64, phases []loadPhase) ([]serveRequest, [][]shot, error) {
	so := spec.ServeOpen
	var reqs []serveRequest
	shots := make([][]shot, len(phases))
	seenMiss := make(map[string]bool)
	seenSeed := make(map[uint64]bool)
	burstID := 0
	for p, ph := range phases {
		rate, pdur := ph.Rate, ph.Dur
		src := rng.New(deriveSeed(seed, 0x5e12e, uint64(p)))
		add := func(due time.Duration, class int, path string, body any, burst int) error {
			b, err := json.Marshal(body)
			if err != nil {
				return err
			}
			shots[p] = append(shots[p], shot{Due: due, Index: len(reqs)})
			reqs = append(reqs, serveRequest{Phase: p, Class: class, Path: path, Body: b, Burst: burst})
			return nil
		}
		freshSeed := func() uint64 {
			for {
				s := src.Uint64()
				if s != 0 && !seenSeed[s] {
					seenSeed[s] = true
					return s
				}
			}
		}
		for _, due := range arrivalTimes(src, rate*so.Mix["fp_hit"], pdur) {
			if err := add(due, classHit, "/v1/fixedpoint", hotKeys[src.Intn(len(hotKeys))], -1); err != nil {
				return nil, nil, err
			}
		}
		missDue := arrivalTimes(src, rate*so.Mix["fp_miss"], pdur)
		for j, fs := range missSpecs(src, len(missDue), seenMiss) {
			if err := add(missDue[j], classMiss, "/v1/fixedpoint", fs, -1); err != nil {
				return nil, nil, err
			}
		}
		for _, due := range arrivalTimes(src, rate*so.Mix["sim_miss"], pdur) {
			if err := add(due, classSim, "/v1/simulate", simSpec(freshSeed()), -1); err != nil {
				return nil, nil, err
			}
		}
		for _, due := range arrivalTimes(src, rate*so.Mix["burst"]/float64(so.BurstSize), pdur) {
			body := simSpec(freshSeed())
			for k := 0; k < so.BurstSize; k++ {
				if err := add(due, classBurst, "/v1/simulate", body, burstID); err != nil {
					return nil, nil, err
				}
			}
			burstID++
		}
		sortShots(shots[p])
	}
	return reqs, shots, nil
}

// missSpecs draws n fixed-point requests never asked before (seen holds
// the keys already drawn). A solve costs from microseconds to tens of
// milliseconds depending on the model and on λ, so the draw is stratified:
// each model is asked equally often, and a model's i-th request takes λ
// from the i-th of its equal slices of [0.5, 0.9]. The requests are then
// shuffled over the arrival times. A seed thus changes which keys are
// asked, and when, but not how much solving the mix holds, which would
// otherwise move the cost per request by several percent between seeds.
func missSpecs(src *rng.Source, n int, seen map[string]bool) []experiments.FixedPointSpec {
	rounds := (n + len(missModels) - 1) / len(missModels)
	out := make([]experiments.FixedPointSpec, 0, n)
	for j := 0; j < n; j++ {
		i := j / len(missModels)
		fs := experiments.FixedPointSpec{Model: missModels[j%len(missModels)]}
		if fs.Model == "multisteal" {
			fs.T = 4
		}
		for {
			fs.Lambda = math.Round((0.5+0.4*(float64(i)+src.Float64())/float64(rounds))*1e6) / 1e6
			k := fs.Model + "/" + strconv.FormatFloat(fs.Lambda, 'g', -1, 64)
			if !seen[k] {
				seen[k] = true
				break
			}
		}
		out = append(out, fs)
	}
	for j := len(out) - 1; j > 0; j-- {
		k := src.Intn(j + 1)
		out[j], out[k] = out[k], out[j]
	}
	return out
}

// newServer builds a serve.Server with the default Config and fills its
// cache with the hot keys.
func newServer() (*serve.Server, error) {
	srv := serve.New(serve.Config{})
	h := srv.Handler()
	for _, k := range hotKeys {
		b, err := json.Marshal(k)
		if err != nil {
			srv.Close()
			return nil, err
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/fixedpoint", bytes.NewReader(b)))
		if rec.Code != http.StatusOK {
			srv.Close()
			return nil, fmt.Errorf("warming hot key %s: status %d: %s", b, rec.Code, rec.Body.Bytes())
		}
	}
	return srv, nil
}

// runServeOpen is the serve-open workload: an open loop of in-process
// requests to serve.Server.Handler at three offered rates.
func runServeOpen(cfg config) (*outcome, error) {
	o := &outcome{}
	phases := servePhases(cfg.Duration)
	reqs, shots, err := genServeSchedule(cfg.Seed, phases)
	if err != nil {
		return nil, err
	}

	var srv *serve.Server
	su := &setups{teardown: func() { srv.Close() }, setup: func() (err error) {
		srv, err = newServer()
		return err
	}}
	if err := su.batch(); err != nil {
		return nil, err
	}
	defer func() { srv.Close() }()
	h := srv.Handler()

	resps := make([]serveResponse, len(reqs))
	var lags []float64
	queueMax := 0.0
	var rates []rateOutcome
	phaseStats := make([][numClasses][]float64, len(phases))
	phaseLags := make([][]float64, len(phases))
	costs := make([]phaseCost, len(phases))
	for p, ph := range phases {
		pr := runPhase(h, cfg.Trace, ph, reqs, shots[p], resps, &queueMax)
		costs[p] = pr.Cost
		lags = append(lags, pr.LagMs...)
		phaseLags[p], phaseStats[p] = pr.LagMs, pr.Stats
		rates = append(rates, pr.Rate)
		for _, s := range shots[p] {
			r, resp := reqs[s.Index], resps[s.Index]
			o.Attempted++
			if resp.Status == http.StatusOK {
				continue
			}
			switch code := errorCode(resp.Body); {
			case code == "":
				o.problemf("%s %s: status %d without a typed code: %q", ph.Name, classNames[r.Class], resp.Status, resp.Body)
				o.Failed++
			case resp.Status == http.StatusTooManyRequests && code == "overloaded":
				// refused by admission control: +Inf latency, not a failure
			default:
				o.Failed++
			}
		}
	}

	nominal := 1
	st := phaseStats[nominal]
	named := []struct {
		name  string
		class int
		p     float64
	}{
		{"fp_hit_p99_ms", classHit, 0.99},
		{"fp_miss_p50_ms", classMiss, 0.5},
		{"fp_miss_p90_ms", classMiss, 0.9},
		{"sim_p50_ms", classSim, 0.5},
		{"sim_p90_ms", classSim, 0.9},
	}
	for _, m := range named {
		o.info(m.name, reported(st[m.class], m.p), "ms")
	}
	o.Op = st[classSim]
	// The operation is one request of the nominal phase; its cost is the
	// server's and the generator's, which share the process.
	nreq := float64(len(shots[nominal]))
	o.CPUPerOp, o.AllocPerOp = costs[nominal].CPUMs/nreq, costs[nominal].AllocKiB/nreq
	o.info("cpu_busy", costs[nominal].CPUMs/1e3/phases[nominal].Dur.Seconds(), "cores")

	overload := len(phaseNames) - 1
	var refused, simOffered, computed int
	burstAnswered := make(map[int]bool)
	for _, s := range shots[overload] {
		r := reqs[s.Index]
		if r.Class != classSim && r.Class != classBurst {
			continue
		}
		simOffered++
		switch {
		case resps[s.Index].Status != http.StatusOK:
			refused++
		case r.Class == classSim:
			computed++
		case !burstAnswered[r.Burst]:
			burstAnswered[r.Burst] = true
			computed++
		}
	}
	// Goodput under overload counts simulations computed: a burst is one
	// computation however many callers it answers.
	o.info("overload_goodput_per_s", float64(computed)/phases[overload].Dur.Seconds(), "1/s")
	o.info("reject_frac", float64(refused)/float64(simOffered), "fraction")
	o.info("max_rate_rps", maxRate(rates, spec.ServeOpen.LatencyLimit), "req/s")
	for p, ph := range phases {
		printPhase(os.Stdout, ph, phaseStats[p], rates[p], phaseLags[p])
	}

	// Per-layer numbers.
	hits, misses := srv.CacheStats()
	o.layer("serve.cache_hit_ratio", float64(hits)/float64(hits+misses), "fraction")
	burstReqs := 0
	for _, r := range reqs {
		if r.Class == classBurst {
			burstReqs++
		}
	}
	if burstReqs > 0 {
		o.layer("serve.coalesced_share", scrapeMetric(h, "wsserved_coalesced_total")/float64(burstReqs), "fraction")
	}
	for p, pn := range phaseNames {
		n := 0
		for _, s := range shots[p] {
			if resps[s.Index].Status == http.StatusTooManyRequests {
				n++
			}
		}
		o.layer("serve.rejected."+pn, float64(n), "count")
	}
	o.layer("serve.queue_depth_max", queueMax, "count")
	lag := summarize(lags)
	o.layer("serve.generator_lag_ms.p50", lag.P50, "ms")
	o.layer("serve.generator_lag_ms.tail", lag.Tail, "ms")

	alone, err := verifyServe(o, reqs, resps, cfg.Procs)
	if err != nil {
		return nil, err
	}
	var waits []float64
	for _, s := range shots[nominal] {
		r, resp := reqs[s.Index], resps[s.Index]
		if r.Class == classSim && resp.Status == http.StatusOK {
			waits = append(waits, resp.LatencyMs-alone[string(r.Body)])
		}
	}
	o.layer("serve.sim_wait_ms.p50", percentile(waits, 0.5), "ms")
	o.layer("serve.sim_wait_ms.p90", percentile(waits, 0.9), "ms")
	if err := su.batch(); err != nil {
		return nil, err
	}
	o.SetupS = su.seconds()
	return o, nil
}

// phaseResult is what one offered-rate phase measured.
type phaseResult struct {
	Stats [numClasses][]float64 // latency by class, ms; +Inf when not answered 200
	LagMs []float64             // how late the generator issued each request
	Rate  rateOutcome
	Cost  phaseCost
}

// phaseCost is what the process spent over a phase.
type phaseCost struct{ CPUMs, AllocKiB float64 }

// runPhase offers one phase's shots to h in an open loop, stores each
// response in resps, and sums up the phase. queueMax tracks the highest
// scheduler queue depth seen on /metrics.
func runPhase(h http.Handler, tr *tracer, ph loadPhase, reqs []serveRequest, shots []shot,
	resps []serveResponse, queueMax *float64) phaseResult {
	c0 := costNow()
	lr := openLoop(shots, func(s shot, due time.Time) {
		r := reqs[s.Index]
		root := tr.begin("serve-open.request", layerHarness, noSpan, int64(s.Index))
		req := httptest.NewRequest(http.MethodPost, r.Path, bytes.NewReader(r.Body))
		rec := httptest.NewRecorder()
		sp := tr.begin(handlerSpan[r.Path], layerServe, root, int64(s.Index))
		h.ServeHTTP(rec, req)
		tr.end(sp)
		lat := float64(time.Since(due).Nanoseconds()) / 1e6
		resps[s.Index] = serveResponse{Status: rec.Code, Body: rec.Body.Bytes(), LatencyMs: lat}
		tr.end(root)
	}, func() {
		*queueMax = math.Max(*queueMax, scrapeMetric(h, "wsserved_sim_queue_depth"))
	})
	var pc phaseCost
	pc.CPUMs, pc.AllocKiB = costNow().since(c0)
	pr := phaseResult{LagMs: lr.LagMs, Cost: pc}
	for _, s := range shots {
		lat := resps[s.Index].LatencyMs
		if resps[s.Index].Status != http.StatusOK {
			lat = failedLatency
		}
		c := reqs[s.Index].Class
		pr.Stats[c] = append(pr.Stats[c], lat)
	}
	var inPhase []backlogSample
	for _, b := range lr.Backlog {
		if b.At <= ph.Dur.Seconds() {
			inPhase = append(inPhase, b)
		}
	}
	pr.Rate = rateOutcome{
		Rate:    ph.Rate,
		SimP90:  percentile(pr.Stats[classSim], 0.9),
		HitP99:  percentile(pr.Stats[classHit], 0.99),
		Growing: backlogGrowing(inPhase, len(shots)),
	}
	return pr
}

// printPhase prints a phase's latency by class and its backlog verdict.
func printPhase(w io.Writer, ph loadPhase, stats [numClasses][]float64, r rateOutcome, lags []float64) {
	for c := 0; c < numClasses; c++ {
		fmt.Fprintf(w, "# %-8s %-8s %s\n", ph.Name, classNames[c], summarize(stats[c]))
	}
	fmt.Fprintf(w, "# %-8s offered %g req/s, backlog growing: %v, generator lag %s\n",
		ph.Name, r.Rate, r.Growing, summarize(lags))
}

// errorCode extracts the machine-readable "code" of an error body, or "".
func errorCode(body []byte) string {
	var e struct {
		Code string `json:"code"`
	}
	if json.Unmarshal(body, &e) != nil {
		return ""
	}
	return e.Code
}

// verifyServe checks every 200 body against the same spec computed
// directly through package experiments: fixed points byte for byte,
// simulations after the wall-clock scrub, and the members of each burst
// against each other byte for byte. It returns, for each simulate body,
// the time its direct computation took alone on an idle pool, in ms.
func verifyServe(o *outcome, reqs []serveRequest, resps []serveResponse, procs int) (map[string]float64, error) {
	byBody := make(map[string][]int)
	var order []string
	for i, r := range reqs {
		if resps[i].Status != http.StatusOK {
			continue
		}
		k := r.Path + " " + string(r.Body)
		if _, ok := byBody[k]; !ok {
			order = append(order, k)
		}
		byBody[k] = append(byBody[k], i)
	}
	bursts := make(map[int][]byte)
	for i, r := range reqs {
		if r.Class != classBurst || resps[i].Status != http.StatusOK {
			continue
		}
		if first, ok := bursts[r.Burst]; !ok {
			bursts[r.Burst] = resps[i].Body
		} else if !bytes.Equal(first, resps[i].Body) {
			o.problemf("burst %d: coalesced callers got different bytes", r.Burst)
		}
	}

	// Simulations one at a time on an idle pool, so each is timed alone.
	pool := sched.New(procs)
	defer pool.Close()
	alone := make(map[string]float64)
	var fps []string
	for _, k := range order {
		path, body, _ := strings.Cut(k, " ")
		if path != "/v1/simulate" {
			fps = append(fps, k)
			continue
		}
		t0 := time.Now()
		want, err := directSim([]byte(body), pool)
		if err != nil {
			return nil, err
		}
		alone[body] = float64(time.Since(t0).Nanoseconds()) / 1e6
		wantC, err := canonicalBody(want)
		if err != nil {
			return nil, err
		}
		for _, i := range byBody[k] {
			got, err := canonicalBody(resps[i].Body)
			if err != nil || !bytes.Equal(got, wantC) {
				o.problemf("simulate %s: served body differs from the direct computation", body)
				break
			}
		}
	}

	// Fixed points on procs goroutines.
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := make(chan string)
	var firstErr error
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				_, body, _ := strings.Cut(k, " ")
				want, err := directFixedPoint([]byte(body))
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				for _, i := range byBody[k] {
					if err == nil && !bytes.Equal(resps[i].Body, want) {
						o.problemf("fixedpoint %s: served body differs from the direct computation", body)
						break
					}
				}
				mu.Unlock()
			}
		}()
	}
	for _, k := range fps {
		next <- k
	}
	close(next)
	wg.Wait()
	return alone, firstErr
}

// directFixedPoint renders a fixed-point request exactly as wsfixed -json
// does.
func directFixedPoint(body []byte) ([]byte, error) {
	var s experiments.FixedPointSpec
	if err := json.Unmarshal(body, &s); err != nil {
		return nil, err
	}
	rep, _, err := s.Solve()
	if err != nil {
		return nil, fmt.Errorf("direct solve of %s: %w", body, err)
	}
	var buf bytes.Buffer
	if err := cliutil.WriteJSON(&buf, rep); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// directSim renders a simulate request through sched.Pool.Sim and
// Cell.Aggregate, exactly as wssim -json does.
func directSim(body []byte, pool *sched.Pool) ([]byte, error) {
	var s experiments.SimSpec
	if err := json.Unmarshal(body, &s); err != nil {
		return nil, err
	}
	opts, err := s.Options()
	if err != nil {
		return nil, fmt.Errorf("direct sim of %s: %w", body, err)
	}
	cell, err := pool.Sim(opts, s.Reps)
	if err != nil {
		return nil, fmt.Errorf("direct sim of %s: %w", body, err)
	}
	agg := cell.Aggregate()
	var buf bytes.Buffer
	if err := cliutil.WriteJSON(&buf, experiments.BuildSimReport(&s, agg)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// scrapeMetric reads one unlabelled sample from the handler's /metrics
// exposition; a missing sample reads 0.
func scrapeMetric(h http.Handler, name string) float64 {
	return promSample(scrape(h), name)
}

// scrape returns the handler's /metrics exposition.
func scrape(h http.Handler) []byte {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return rec.Body.Bytes()
}

// promSample sums the samples of metric name (with label set, when given
// as a `{...}` suffix of name, matched exactly) in a Prometheus text
// exposition.
func promSample(text []byte, name string) float64 {
	sum := 0.0
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		key, val, ok := strings.Cut(line, " ")
		if !ok || key != name {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			sum += v
		}
	}
	return sum
}
