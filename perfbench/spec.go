package main

import (
	_ "embed"
	"encoding/json"
)

// spec.json records the benchmark's fixed numbers — offered rates, the
// traffic mix, the latency limit and the capacity measurement they were
// derived from, the golden event counts and digests — next to the layer
// predictions and the fingerprint of the machine the bounds were tuned
// on. It is compiled into the binary, so the numbers a run uses are the
// numbers the file shows; benchSpec decodes the part the program reads.
//
//go:embed spec.json
var specJSON []byte

type benchSpec struct {
	BatchSim struct {
		GoldenSeed uint64                  `json:"golden_seed"`
		Golden     map[string]goldenResult `json:"golden"`
	} `json:"batch_sim"`

	ServeOpen struct {
		RatesRPS     map[string]float64 `json:"rates_rps"`
		Phases       map[string]float64 `json:"phase_share"`
		Mix          map[string]float64 `json:"mix"`
		BurstSize    int                `json:"burst_size"`
		LatencyLimit latencyLimit       `json:"latency_limit"`
	} `json:"serve_open"`

	ClusterSteal struct {
		RateRPS float64 `json:"rate_rps"`
	} `json:"cluster_steal"`

	TunedOn     machine      `json:"tuned_on"`
	Predictions []prediction `json:"predictions"`
}

// prediction names the end-to-end metrics, as workload:metric, that a
// change to one layer should move, and those it should leave unchanged.
type prediction struct {
	Layer      string   `json:"layer"`
	ShouldMove []string `json:"should_move"`
	NoChange   []string `json:"no_change_predicted"`
}

// goldenResult is a DES config's event count and result digest at the
// golden seed (DESIGN §16: a fixed seed gives a byte-identical run).
type goldenResult struct {
	Events int64  `json:"events"`
	Digest string `json:"digest"`
}

// loadSpec decodes the embedded spec; a malformed file is a build defect.
func loadSpec() benchSpec {
	var s benchSpec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		panic("perfbench: spec.json: " + err.Error())
	}
	return s
}

var spec = loadSpec()
