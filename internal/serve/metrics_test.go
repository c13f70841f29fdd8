package serve

import (
	"bytes"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/sched"
)

var updateGoldens = flag.Bool("update", false, "rewrite the /metrics shape goldens under testdata/")

// exposeShape reduces a Prometheus exposition to what scrapers depend on:
// every HELP/TYPE line verbatim and every sample's name and label set with
// its value scrubbed. The samples of each family are sorted, so the shape
// pins names, help texts, types and label sets but not the series order
// (TestMetricsScrapesStable pins that).
func exposeShape(text string) string {
	var out, fam []string
	flush := func() {
		sort.Strings(fam)
		out = append(out, fam...)
		fam = fam[:0]
	}
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			flush()
			out = append(out, line)
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i >= 0 {
			line = line[:i] + " V"
		}
		fam = append(fam, line)
	}
	flush()
	return strings.Join(out, "\n") + "\n"
}

// checkShape compares the exposition's shape with a golden file.
func checkShape(t *testing.T, golden, text string) {
	t.Helper()
	got := exposeShape(text)
	path := filepath.Join("testdata", golden)
	if *updateGoldens {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("/metrics shape differs from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// scriptedTraffic drives a chaos-armed server through every family with
// lazily created series: two routes' worth of 200s, a 400, injected 500s
// until the simulate breaker opens (closed→open, then 503s), and one
// /metrics scrape so the next scrape lists that route too.
func scriptedTraffic(t *testing.T, ts *httptest.Server) {
	t.Helper()
	post(t, ts, "/v1/fixedpoint", `{"model":"simple","lambda":0.9}`)
	post(t, ts, "/v1/fixedpoint", `{"model":"simple","lambda":0.9}`)
	post(t, ts, "/v1/fixedpoint", `{`)
	post(t, ts, "/v1/ode", `{"model":"simple","lambda":0.8,"span":40,"dt":4}`)
	get(t, ts, "/v1/stream/ode?model=simple&lambda=0.8&span=8&dt=4")
	get(t, ts, "/healthz")
	get(t, ts, "/readyz")
	opened := false
	for i := 0; i < 20 && !opened; i++ {
		resp, _ := post(t, ts, "/v1/simulate", simBody)
		opened = resp.StatusCode == http.StatusServiceUnavailable
	}
	if !opened {
		t.Fatal("the simulate breaker never opened")
	}
	get(t, ts, "/metrics")
}

// chaosConfig fails every simulate request at the HTTP seam; the breaker
// opens after four samples and stays open for the test.
func chaosConfig() Config {
	return Config{
		Workers: 1, Chaos: chaos.New(chaos.Config{Seed: 7, PError: 1}),
		BreakerWindow: 10, BreakerThreshold: 0.5, BreakerMinSamples: 4,
		BreakerCooldown: time.Hour,
	}
}

// TestMetricsShapeGolden pins every family name, HELP text, TYPE and label
// set of the serving exposition, alone and with a cluster node attached
// (whose families follow the server's), against goldens recorded before
// the metrics registry replaced the hand-rolled counter bags.
func TestMetricsShapeGolden(t *testing.T) {
	_, ts := newTestServer(t, chaosConfig())
	scriptedTraffic(t, ts)
	_, body := get(t, ts, "/metrics")
	checkShape(t, "metrics_serve.golden", string(body))

	pool := sched.New(1)
	t.Cleanup(pool.Close)
	// The node is never started, so its one peer is never contacted.
	node, err := cluster.New(cluster.Config{
		Self: "http://127.0.0.1:1", Peers: []string{"http://127.0.0.1:2"}, Pool: pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, cts := newTestServer(t, Config{Pool: pool, Cluster: node})
	post(t, cts, "/v1/fixedpoint", `{"model":"simple","lambda":0.9}`)
	_, body = get(t, cts, "/metrics")
	checkShape(t, "metrics_serve_cluster.golden", string(body))
}

// TestMetricsScrapesStable: with no traffic in between, two scrapes of a
// server with several routes and status codes are byte-identical, and each
// family's samples sit together under one HELP/TYPE pair.
func TestMetricsScrapesStable(t *testing.T) {
	s, ts := newTestServer(t, chaosConfig())
	scriptedTraffic(t, ts)
	scrape := func() []byte {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		return rec.Body.Bytes()
	}
	// The first scrape is itself a request: it adds /metrics series that
	// the second one must then render identically.
	scrape()
	a, b := scrape(), scrape()
	a = dropMetricsRoute(a)
	b = dropMetricsRoute(b)
	if !bytes.Equal(a, b) {
		t.Fatalf("two idle scrapes differ:\n%s\n---\n%s", a, b)
	}
	seen := map[string]bool{}
	current := ""
	for _, line := range strings.Split(strings.TrimSpace(string(a)), "\n") {
		if name, ok := strings.CutPrefix(line, "# HELP "); ok {
			current, _, _ = strings.Cut(name, " ")
			if seen[current] {
				t.Errorf("family %s has a second HELP line", current)
			}
			seen[current] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasPrefix(line, current) {
			t.Errorf("sample %q is outside its family's block (current family %s)", line, current)
		}
	}
}

// dropMetricsRoute removes the /metrics route's own series, which the
// scrape being measured increments after it has rendered.
func dropMetricsRoute(text []byte) []byte {
	var out []byte
	for _, line := range bytes.SplitAfter(text, []byte("\n")) {
		if !bytes.Contains(line, []byte(`route="/metrics"`)) {
			out = append(out, line...)
		}
	}
	return out
}

// TestMetricsScrapeAllocs bounds the cost of rendering /metrics: on a
// warmed server one scrape allocates less than 16 bytes per body byte.
func TestMetricsScrapeAllocs(t *testing.T) {
	s, ts := newTestServer(t, chaosConfig())
	scriptedTraffic(t, ts)
	scrape := func() int {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		return rec.Body.Len()
	}
	scrape()
	const n = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	size := 0
	for i := 0; i < n; i++ {
		size = scrape()
	}
	runtime.ReadMemStats(&after)
	perScrape := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("one scrape: %d B allocated for a %d B body (%.1f×)", perScrape, size, float64(perScrape)/float64(size))
	if perScrape >= 16*uint64(size) {
		t.Errorf("one scrape allocated %d B for a %d B body, want < 16×", perScrape, size)
	}
}

// TestFixedPointHitAllocs pins the request path's allocations: an
// in-process /v1/fixedpoint cache hit, accounting included, allocates no
// more than it did with the hand-rolled counter bag.
func TestFixedPointHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	s, _ := newTestServer(t, Config{Workers: 1})
	h := s.Handler()
	const body = `{"model":"simple","lambda":0.9}`
	hit := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/fixedpoint", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	hit() // fill the cache
	allocs := testing.AllocsPerRun(50, hit)
	t.Logf("cache hit: %.0f allocs", allocs)
	if allocs > 46 { // measured with the counter bag this registry replaced
		t.Errorf("cache hit allocates %.0f times, want <= 46", allocs)
	}
}
