package main

import (
	"fmt"
	"io"
)

// capacityLadder is the offered rates, req/s, at which runCapacity
// measures the serve-open mix, lowest first.
var capacityLadder = []float64{60, 120, 180, 240, 300, 360, 420, 480, 540, 600, 660, 720, 960}

// runCapacity measures how the serve-open mix behaves at each rate of
// capacityLadder, each offered for cfg.Duration to one server, and prints
// every phase and the capacity: the highest rate below the first that
// missed the latency limit or grew a backlog. spec.json's offered rates are derived from this
// measurement (its serve_open.capacity records one); run it again to
// re-derive them on another machine:
//
//	bash perfbench/run.sh --capacity --seed 1 --seconds 10
func runCapacity(cfg config, w io.Writer) error {
	var phases []loadPhase
	for _, r := range capacityLadder {
		phases = append(phases, loadPhase{fmt.Sprintf("%grps", r), r, cfg.Duration})
	}
	reqs, shots, err := genServeSchedule(cfg.Seed, phases)
	if err != nil {
		return err
	}
	srv, err := newServer()
	if err != nil {
		return err
	}
	defer srv.Close()
	h := srv.Handler()
	resps := make([]serveResponse, len(reqs))
	lim := spec.ServeOpen.LatencyLimit
	capacity := 0.0
	for p, ph := range phases {
		queueMax := 0.0
		pr := runPhase(h, nil, ph, reqs, shots[p], resps, &queueMax)
		printPhase(w, ph, pr.Stats, pr.Rate, pr.LagMs)
		fmt.Fprintf(w, "capacity %6g req/s: sim p90 %8.4g ms, fp_hit p99 %8.4g ms, growing %-5v, queue max %g, meets limit %v\n",
			ph.Rate, pr.Rate.SimP90, pr.Rate.HitP99, pr.Rate.Growing, queueMax, lim.meets(pr.Rate))
		if !lim.meets(pr.Rate) {
			break
		}
		capacity = ph.Rate
	}
	fmt.Fprintf(w, "capacity: highest rate below the first to miss sim p90 <= %g ms or fp_hit p99 <= %g ms, or to grow a backlog: %g req/s\n",
		lim.SimP90Ms, lim.HitP99Ms, capacity)
	return nil
}
