package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/serve"
)

// clusterSpec is the cluster-steal request: eight replications, so that
// replica A's single worker has a queue for replica B to steal from. Each
// replication is short (about 4 ms) so that a run holds enough requests
// for a steady p90.
func clusterSpec(seed uint64) experiments.SimSpec {
	return experiments.SimSpec{N: 32, Lambda: 0.9, Horizon: 500, Reps: 8, Seed: seed}
}

// clusterGossip is the replicas' load-poll and steal-decision period. A
// request lasts tens of milliseconds, so the default 500ms would let
// replica A finish most requests before replica B noticed them; at 5ms B
// finds the queue within the first of A's eight replications.
const clusterGossip = 5 * time.Millisecond

// rpcTimer is an http.RoundTripper that times the cluster's steal and
// completion RPCs on the thief's client.
type rpcTimer struct {
	next  http.RoundTripper
	trace *tracer
	mu    sync.Mutex
	rtt   map[string][]float64 // RPC path → round-trip times, ms
}

func (t *rpcTimer) RoundTrip(r *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := t.next.RoundTrip(r)
	t1 := time.Now()
	path := r.URL.Path
	if path == "/v1/cluster/steal" || path == "/v1/cluster/complete" {
		t.trace.record("cluster.rpc"+path, layerCluster, t0, t1, -1)
		t.mu.Lock()
		t.rtt[path] = append(t.rtt[path], float64(t1.Sub(t0).Nanoseconds())/1e6)
		t.mu.Unlock()
	}
	return resp, err
}

// linkTransport returns a transport with at most procs connections to any
// one peer.
func linkTransport(procs int) *http.Transport {
	return &http.Transport{MaxConnsPerHost: procs, MaxIdleConnsPerHost: procs}
}

// replica is one in-process wsserved instance.
type replica struct {
	url   string
	pool  *sched.Pool
	node  *cluster.Node
	srv   *serve.Server
	hs    *http.Server
	timer *rpcTimer
}

// pair is the two-replica cluster of the workload.
type pair struct {
	a, b  *replica
	serve sync.WaitGroup
}

// startPair boots replicas A and B on loopback listeners, each with one
// scheduler worker, and waits until each sees the other as healthy.
func startPair(procs int, tr *tracer) (*pair, error) {
	var lns []net.Listener
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, fmt.Errorf("loopback listener: %w", err)
		}
		lns = append(lns, ln)
	}
	urls := []string{"http://" + lns[0].Addr().String(), "http://" + lns[1].Addr().String()}
	p := &pair{}
	for i := range urls {
		timer := &rpcTimer{next: linkTransport(procs), trace: tr, rtt: make(map[string][]float64)}
		pool := sched.New(1)
		node, err := cluster.New(cluster.Config{
			Self:           urls[i],
			Peers:          []string{urls[1-i]},
			Pool:           pool,
			GossipInterval: clusterGossip,
			Client:         &http.Client{Transport: timer},
		})
		if err != nil {
			pool.Close()
			for _, l := range lns[i:] {
				l.Close()
			}
			p.close()
			return nil, err
		}
		srv := serve.New(serve.Config{Pool: pool, Cluster: node})
		r := &replica{url: urls[i], pool: pool, node: node, srv: srv,
			hs: &http.Server{Handler: srv.Handler()}, timer: timer}
		if i == 0 {
			p.a = r
		} else {
			p.b = r
		}
		p.serve.Add(1)
		go func(ln net.Listener) {
			defer p.serve.Done()
			_ = r.hs.Serve(ln) // returns http.ErrServerClosed on close
		}(lns[i])
		node.Start()
	}
	deadline := time.Now().Add(10 * time.Second)
	for p.a.node.ClusterStatus().Healthy < 1 || p.b.node.ClusterStatus().Healthy < 1 {
		if time.Now().After(deadline) {
			p.close()
			return nil, errors.New("replicas did not see each other healthy within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	return p, nil
}

// close stops both replicas: node, then HTTP server, then server and pool.
func (p *pair) close() {
	for _, r := range []*replica{p.a, p.b} {
		if r == nil {
			continue
		}
		r.node.Close()
		r.hs.Close()
		r.srv.Close()
		r.pool.Close()
	}
	p.serve.Wait()
}

// runClusterSteal is the cluster-steal workload: distinct simulate requests
// at a fixed open-loop rate, all to replica A, which replica B serves in
// part through steal leases. The requests are evenly spaced, so that the
// latency tail measures the lease protocol (how soon B notices A's queue
// and takes part of it) rather than where a seed happens to bunch
// arrivals; the seed draws the requests' own seeds.
func runClusterSteal(cfg config) (*outcome, error) {
	o := &outcome{}
	src := rng.New(deriveSeed(cfg.Seed, 0xc1))
	due := evenTimes(spec.ClusterSteal.RateRPS, cfg.Duration)
	bodies := make([][]byte, len(due))
	shots := make([]shot, len(due))
	seen := make(map[uint64]bool)
	for i := range due {
		s := src.Uint64()
		for s == 0 || seen[s] {
			s = src.Uint64()
		}
		seen[s] = true
		b, err := json.Marshal(clusterSpec(s))
		if err != nil {
			return nil, err
		}
		bodies[i] = b
		shots[i] = shot{Due: due[i], Index: i}
	}

	var p *pair
	su := &setups{teardown: func() { p.close() }, setup: func() (err error) {
		p, err = startPair(cfg.Procs, cfg.Trace)
		return err
	}}
	if err := su.batch(); err != nil {
		return nil, err
	}
	defer func() { p.close() }()

	client := &http.Client{Transport: linkTransport(cfg.Procs)}
	defer client.CloseIdleConnections()
	resps := make([]serveResponse, len(shots))
	c0 := costNow()
	lr := openLoop(shots, func(s shot, due time.Time) {
		root := cfg.Trace.begin("cluster-steal.request", layerHarness, noSpan, int64(s.Index))
		sp := cfg.Trace.begin("http POST replica A /v1/simulate", layerServe, root, int64(s.Index))
		status, body, err := post(client, p.a.url+"/v1/simulate", bodies[s.Index])
		cfg.Trace.end(sp)
		lat := float64(time.Since(due).Nanoseconds()) / 1e6
		if err != nil {
			status, body = 0, []byte(err.Error())
		}
		resps[s.Index] = serveResponse{Status: status, Body: body, LatencyMs: lat}
		cfg.Trace.end(root)
	}, nil)
	cpuMs, allocKiB := costNow().since(c0)

	for i := range shots {
		o.Attempted++
		r := &resps[i]
		if r.Status != http.StatusOK {
			o.Failed++
			if errorCode(r.Body) == "" {
				o.problemf("cluster request %d: status %d without a typed code: %q", i, r.Status, r.Body)
			}
			o.Op = append(o.Op, failedLatency)
			continue
		}
		o.Op = append(o.Op, r.LatencyMs)
	}
	// The operation is one request; its cost is that of both replicas,
	// which share the process, and of the generator.
	o.CPUPerOp, o.AllocPerOp = cpuMs/float64(len(shots)), allocKiB/float64(len(shots))
	o.info("cpu_busy", cpuMs/1e3/lr.Elapsed.Seconds(), "cores")
	o.info("served_per_s", float64(len(shots)-o.Failed)/lr.Elapsed.Seconds(), "1/s")
	for _, m := range []struct {
		name string
		p    float64
	}{{"cluster_sim_p50_ms", 0.5}, {"cluster_sim_p90_ms", 0.9}} {
		o.info(m.name, reported(o.Op, m.p), "ms")
	}
	lag := summarize(lr.LagMs)
	o.info("generator_lag_p50_ms", lag.P50, "ms")
	o.info("generator_lag_tail_ms", lag.Tail, "ms")

	// Per-layer numbers from the thief's timer and the replicas' /metrics.
	rtt := make(map[string][]float64)
	for _, r := range []*replica{p.a, p.b} {
		r.timer.mu.Lock()
		for k, v := range r.timer.rtt {
			rtt[k] = append(rtt[k], v...)
		}
		r.timer.mu.Unlock()
	}
	for _, m := range []struct{ name, path string }{
		{"cluster.steal_rtt_ms", "/v1/cluster/steal"},
		{"cluster.complete_rtt_ms", "/v1/cluster/complete"},
	} {
		o.layer(m.name+".p50", percentile(rtt[m.path], 0.5), "ms")
		o.layer(m.name+".p90", percentile(rtt[m.path], 0.9), "ms")
	}
	rec := scrape(p.b.srv.Handler())
	stolen := promSample(rec, `wsserved_cluster_steal_reps_total{role="thief"}`)
	probes := promSample(rec, "wsserved_cluster_steal_probes_total")
	empty := promSample(rec, "wsserved_cluster_steal_empty_total")
	posts := promSample(rec, "wsserved_cluster_completion_posts_total")
	batches := promSample(rec, `wsserved_cluster_steal_batches_total{role="thief"}`)
	totalReps := float64(len(shots) * clusterSpec(0).Reps)
	o.layer("cluster.stolen_rep_share", stolen/totalReps, "fraction")
	if probes > 0 {
		o.layer("cluster.steal_empty_ratio", empty/probes, "fraction")
	} else {
		o.layer("cluster.steal_empty_ratio", 0, "fraction")
	}
	o.layer("cluster.completion_retries", posts-batches, "count")
	if stolen < 1 {
		o.problemf("cluster-steal: replica B stole no replication; the lease protocol was not exercised")
	}

	// Every body must equal a single-replica computation of its spec.
	pool := sched.New(cfg.Procs)
	defer pool.Close()
	for i, r := range resps {
		if r.Status != http.StatusOK {
			continue
		}
		want, err := directSim(bodies[i], pool)
		if err != nil {
			return nil, err
		}
		wantC, err1 := canonicalBody(want)
		gotC, err2 := canonicalBody(r.Body)
		if err1 != nil || err2 != nil || !bytes.Equal(wantC, gotC) {
			o.problemf("cluster request %d: body differs from a single-replica run of %s", i, bodies[i])
		}
	}
	if err := su.batch(); err != nil {
		return nil, err
	}
	o.SetupS = su.seconds()
	return o, nil
}

// post sends one JSON request and returns the status and body.
func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}
