package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestRegistryFamilies(t *testing.T) {
	r := NewRegistry()
	requests := r.CounterVec("app_requests_total", "Requests.", "code", "route")
	depth := r.Gauge("app_queue_depth", "Depth.")
	r.CounterVec("app_unused_total", "Never touched.", "route")
	requests.With("429", "/v1/y").Inc()
	requests.With("200", "/v1/x").Add(3)
	depth.Add(3)
	depth.Add(-1)
	out := string(r.AppendText(nil))

	want := `# HELP app_requests_total Requests.
# TYPE app_requests_total counter
app_requests_total{code="200",route="/v1/x"} 3
app_requests_total{code="429",route="/v1/y"} 1
# HELP app_queue_depth Depth.
# TYPE app_queue_depth gauge
app_queue_depth 2
`
	// Families in registration order, series sorted by label values, and
	// a family without series renders nothing at all.
	if out != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", out, want)
	}
	if again := string(r.AppendText(nil)); again != out {
		t.Errorf("second render differs:\n%s", again)
	}
}

func TestRegistryHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("app_latency_seconds", "Latency.", []float64{0.1, 1, 10}, "route").With("/v1/x")
	for _, v := range []float64{0.05, 0.1, 0.5, 0.5, 1, 11} {
		h.Observe(v)
	}
	out := string(r.AppendText(nil))
	for _, want := range []string{
		`app_latency_seconds_bucket{le="0.1",route="/v1/x"} 2`,
		`app_latency_seconds_bucket{le="1",route="/v1/x"} 5`,
		`app_latency_seconds_bucket{le="10",route="/v1/x"} 5`,
		`app_latency_seconds_bucket{le="+Inf",route="/v1/x"} 6`,
		`app_latency_seconds_sum{route="/v1/x"} 13.15`,
		`app_latency_seconds_count{route="/v1/x"} 6`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// TestRegistryCollect covers families read at scrape time: emitted
// samples are sorted by label values, label values are escaped, and large
// counts keep the %g rendering scrapers already parse.
func TestRegistryCollect(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("app_entries", "Entries.", func() float64 { return 7 })
	r.Collect("app_faults_total", "Faults.", "counter", []string{"kind", "site"},
		func(emit func(float64, ...string)) {
			emit(2e6, "panic", "b")
			emit(1, "error", `a"\`+"\n")
		})
	r.Collect("app_none", "Empty.", "gauge", nil, func(func(float64, ...string)) {})
	want := `# HELP app_entries Entries.
# TYPE app_entries gauge
app_entries 7
# HELP app_faults_total Faults.
# TYPE app_faults_total counter
app_faults_total{kind="error",site="a\"\\\n"} 1
app_faults_total{kind="panic",site="b"} 2e+06
`
	if out := string(r.AppendText(nil)); out != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", out, want)
	}
}

// TestRegistryConcurrent increments one series from many goroutines while
// scraping; run under -race it also checks the handles' synchronization.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("app_total", "Total.", "worker")
	h := r.HistogramVec("app_seconds", "Seconds.", []float64{1}, "worker")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.With("w").Inc()
				h.With("w").Observe(0.5)
				if i%100 == 0 {
					r.AppendText(nil)
				}
			}
		}()
	}
	wg.Wait()
	if got := c.With("w").Value(); got != 4000 {
		t.Errorf("count = %d, want 4000", got)
	}
}

func TestRegistryRejectsUnsortedKeys(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("registering unsorted label keys did not panic")
		}
	}()
	NewRegistry().CounterVec("app_total", "Total.", "route", "code")
}

func TestPromFloatInf(t *testing.T) {
	for v, want := range map[float64]string{math.Inf(1): "+Inf", math.Inf(-1): "-Inf", 0.001: "0.001", 1e6: "1e+06"} {
		if got := string(appendFloat(nil, v)); got != want {
			t.Errorf("appendFloat(%v) = %q, want %q", v, got, want)
		}
	}
}

// TestCountersEachCoversEveryName pins Each and CounterNames to each other:
// every listed name is visited exactly once and with the right field.
func TestCountersEachCoversEveryName(t *testing.T) {
	c := Counters{
		Arrivals: 1, Spawns: 2, Departures: 3,
		StealAttempts: 4, StealSuccesses: 5, StealFailEmpty: 6, StealFailThreshold: 7,
		Retries: 8, RetriesStale: 9,
		TransfersStarted: 10, TransfersCompleted: 11,
		Rebalances: 12, RebalanceMoves: 13, Events: 14,
	}
	seen := map[string]int64{}
	order := []string{}
	c.Each(func(name string, v int64) {
		seen[name] = v
		order = append(order, name)
	})
	if len(seen) != len(CounterNames) {
		t.Fatalf("Each visited %d names, CounterNames has %d", len(seen), len(CounterNames))
	}
	for i, name := range CounterNames {
		if order[i] != name {
			t.Fatalf("Each order[%d] = %q, CounterNames[%d] = %q", i, order[i], i, name)
		}
	}
	if seen["arrivals"] != 1 || seen["events"] != 14 || seen["rebalance_moves"] != 13 {
		t.Errorf("Each mapped wrong fields: %v", seen)
	}
}

func TestCountersAdd(t *testing.T) {
	var total Counters
	one := Counters{Arrivals: 2, Events: 5, StealSuccesses: 1}
	total.Add(one)
	total.Add(one)
	if total.Arrivals != 4 || total.Events != 10 || total.StealSuccesses != 2 {
		t.Errorf("Add mis-accumulated: %+v", total)
	}
}
