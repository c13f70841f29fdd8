package cluster

import "repro/internal/metrics"

// registerMetrics registers the cluster layer's families on a fresh
// registry, in exposition order, under the wsserved_cluster_* namespace
// the serving daemon's /metrics renders after its own. Membership and the
// per-peer breaker states are read from the peers at scrape time.
func (n *Node) registerMetrics() {
	r := metrics.NewRegistry()
	m := &n.met
	n.prom = r
	r.GaugeFunc("wsserved_cluster_peers", "Configured peer replicas.",
		func() float64 { return float64(len(n.peers)) })
	r.GaugeFunc("wsserved_cluster_peers_healthy", "Peers passing gossip health checks.",
		func() float64 { return float64(n.ClusterStatus().Healthy) })
	r.GaugeFunc("wsserved_cluster_standalone", "1 while degraded to fully-local standalone mode (no healthy peers).",
		func() float64 {
			if n.standalone.Load() {
				return 1
			}
			return 0
		})
	r.Collect("wsserved_cluster_peer_breaker_state", "Per-peer circuit breaker state: 0 closed, 1 half-open, 2 open.", "gauge",
		[]string{"peer"}, func(emit func(float64, ...string)) {
			for _, p := range n.peers {
				emit(float64(p.brk.Current()), p.url)
			}
		})
	m.gossip = r.CounterVec("wsserved_cluster_gossip_total", "Load-gossip polls by peer and outcome.", "outcome", "peer")
	m.stealProbes = r.Counter("wsserved_cluster_steal_probes_total", "Steal RPCs sent to peers.")
	m.stealHedges = r.Counter("wsserved_cluster_steal_hedges_total", "Hedged second steal probes fired.")
	m.stealEmpty = r.Counter("wsserved_cluster_steal_empty_total", "Steal probes answered with no work.")
	batches := r.CounterVec("wsserved_cluster_steal_batches_total", "Stolen batches by role.", "role")
	m.stealBatches, m.grantedBatches = batches.With("thief"), batches.With("victim")
	reps := r.CounterVec("wsserved_cluster_steal_reps_total", "Stolen replications by role.", "role")
	m.stolenReps, m.grantedReps = reps.With("thief"), reps.With("victim")
	m.completionPosts = r.Counter("wsserved_cluster_completion_posts_total", "Completion RPC attempts, retries included.")
	m.completionFails = r.Counter("wsserved_cluster_completion_failures_total", "Stolen batches whose completion was abandoned after retries.")
	verdicts := r.CounterVec("wsserved_cluster_completions_total", "Stolen replication results offered back, by verdict.", "verdict")
	m.acceptedReps, m.rejectedReps = verdicts.With("accepted"), verdicts.With("rejected")
	m.reclaimedReps = r.Counter("wsserved_cluster_lease_reclaimed_reps_total", "Replications reclaimed from expired leases.")
	m.forwards = r.Counter("wsserved_cluster_forwards_total", "Cached requests proxied to their consistent-hash owner.")
	m.forwardFallbacks = r.Counter("wsserved_cluster_forward_fallbacks_total", "Forward failures degraded to local compute.")
	m.forwardedIn = r.Counter("wsserved_cluster_forwarded_in_total", "Forwarded requests served on behalf of peers.")
	m.rpcDropped = r.Counter("wsserved_cluster_rpc_partition_drops_total", "Cluster RPCs dropped by injected partitions.")
}

// Metrics returns the node's metric families, which the serving daemon
// renders after its own on /metrics.
func (n *Node) Metrics() *metrics.Registry { return n.prom }
