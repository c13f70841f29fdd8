package serve

import "repro/internal/metrics"

// latencyBounds are the request-latency histogram bucket upper bounds in
// seconds, exponential from 1ms to ~65s — wide enough for both cached
// fixed-point hits and long finite-n simulations.
var latencyBounds = []float64{0.001, 0.004, 0.016, 0.064, 0.256, 1.024, 4.096, 16.384, 65.536}

// registerMetrics registers the daemon's families on a fresh registry, in
// exposition order. Cache size, breaker state, chaos injections and the
// simulator totals are read from their owners at scrape time.
func (s *Server) registerMetrics() {
	r := metrics.NewRegistry()
	m := &s.met
	s.prom = r
	m.requests = r.CounterVec("wsserved_requests_total", "HTTP requests by route and status code.", "code", "route")
	m.latency = r.HistogramVec("wsserved_request_seconds", "HTTP request latency by route.", latencyBounds, "route")
	m.cacheHits = r.Counter("wsserved_cache_hits_total", "Result-cache hits.")
	m.cacheMisses = r.Counter("wsserved_cache_misses_total", "Result-cache misses.")
	r.GaugeFunc("wsserved_cache_entries", "Result-cache resident entries.",
		func() float64 { return float64(s.cache.Len()) })
	m.coalesced = r.Counter("wsserved_coalesced_total", "Requests served by riding another request's in-flight computation.")
	m.simQueueDepth = r.Gauge("wsserved_sim_queue_depth", "Admission slots currently held by simulate requests.")
	m.simRejected = r.Counter("wsserved_sim_rejected_total", "Simulate requests rejected with 429 by admission control.")
	m.simRuns = r.Counter("wsserved_sim_runs_total", "Simulation replications executed by the scheduler pool.")
	m.simCancelled = r.Counter("wsserved_sim_cancelled_total", "Simulation replications skipped because their request was abandoned.")
	m.inFlight = r.Gauge("wsserved_in_flight_requests", "HTTP requests currently being handled.")
	m.servePanics = r.Counter("ws_serve_panics_total", "Handler panics contained by the route barrier (each served as a 500).")
	m.replicationPanics = r.Counter("wsserved_sim_replication_panics_total", "Simulate requests failed by a panicked replication.")
	r.GaugeFunc("wsserved_breaker_state", "Circuit breaker state of /v1/simulate: 0 closed, 1 half-open, 2 open.",
		func() float64 { return float64(s.brk.Current()) })
	m.breakerShortCircs = r.Counter("wsserved_breaker_short_circuits_total", "Requests answered 503 by the open breaker without running.")
	m.breakerTransitions = r.CounterVec("wsserved_breaker_transitions_total", "Circuit breaker state transitions.", "from", "to")
	r.Collect("wsserved_chaos_injections_total", "Faults injected by the chaos layer, by site and kind.", "counter",
		[]string{"kind", "site"}, func(emit func(float64, ...string)) {
			s.chaos.Each(func(site, kind string, n uint64) { emit(float64(n), kind, site) })
		})
	r.Collect("wsserved_sim_events_total", "Lifetime simulator event counts by kind, summed over every replication served.", "counter",
		[]string{"kind"}, func(emit func(float64, ...string)) {
			m.simMu.Lock()
			totals := m.simEvents
			m.simMu.Unlock()
			totals.Each(func(kind string, n int64) { emit(float64(n), kind) })
		})
}
