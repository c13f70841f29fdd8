// Package metrics defines the observability layer of the work-stealing
// simulator: per-run event counters, busy-time utilization, a sampled
// queue-length histogram, and event-loop throughput, plus the aggregation
// of all of these across replications with confidence intervals.
//
// The counters are plain int64 fields incremented inside the engine's
// event loop — no locks, no allocation, no interface dispatch on the hot
// path. Each counter corresponds to a term of the paper's differential
// equations (see DESIGN.md §8), so a metrics report can be read side by
// side with the mean-field fixed point: utilization against s₁ = λ, the
// steal success fraction against the victim-tail probability s_T, and the
// queue-length histogram against the occupancy densities π_i − π_{i+1}.
package metrics

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/table"
)

// Counters holds the monotone event counts of one simulation run. All
// fields are cumulative over the whole run (warmup included — they count
// events, not steady-state estimates).
type Counters struct {
	// Arrivals counts external Poisson arrivals; Spawns counts internal
	// spawn events that landed on a busy processor (§3.5).
	Arrivals int64 `json:"arrivals"`
	Spawns   int64 `json:"spawns"`
	// Departures counts service completions.
	Departures int64 `json:"departures"`

	// StealAttempts = StealSuccesses + StealFailEmpty + StealFailThreshold.
	// A failed attempt is classified by its cause: the chosen victim held
	// fewer than 2 tasks (FailEmpty — nothing stealable under any
	// threshold) or held at least 2 but fewer than the thief's requirement
	// left+T (FailThreshold).
	StealAttempts      int64 `json:"steal_attempts"`
	StealSuccesses     int64 `json:"steal_successes"`
	StealFailEmpty     int64 `json:"steal_fail_empty"`
	StealFailThreshold int64 `json:"steal_fail_threshold"`

	// Retries counts repeated steal attempts made by idle thieves (§2.5);
	// RetriesStale counts retry events cancelled because the processor
	// gained work before they fired.
	Retries      int64 `json:"retries"`
	RetriesStale int64 `json:"retries_stale"`

	// TransfersStarted/Completed count stolen tasks entering and leaving
	// flight under transfer delays (§3.2).
	TransfersStarted   int64 `json:"transfers_started"`
	TransfersCompleted int64 `json:"transfers_completed"`

	// Rebalances counts rebalancing events that moved at least one task;
	// RebalanceMoves counts the tasks they moved.
	Rebalances     int64 `json:"rebalances"`
	RebalanceMoves int64 `json:"rebalance_moves"`

	// BulkSteals counts successful steals by fluid-bulk thieves against
	// tracked processors under the hybrid engine, and BulkStolenTasks the
	// tasks they removed. Always zero for the pure engines (omitted from
	// JSON so their serialized results are unchanged).
	BulkSteals      int64 `json:"bulk_steals,omitempty"`
	BulkStolenTasks int64 `json:"bulk_stolen_tasks,omitempty"`

	// Events counts every event processed by the loop, of any kind.
	Events int64 `json:"events"`
}

// ProcMetrics holds the per-processor counters of one run.
type ProcMetrics struct {
	// StealAttempts and StealSuccesses count attempts initiated by this
	// processor as the thief.
	StealAttempts  int64 `json:"steal_attempts"`
	StealSuccesses int64 `json:"steal_successes"`
	// BusyTime is the post-warmup time the processor spent with at least
	// one task queued; Utilization is BusyTime over the measured span.
	BusyTime    float64 `json:"busy_time"`
	Utilization float64 `json:"utilization"`
}

// Metrics reports the observability measurements of one simulation run.
type Metrics struct {
	Counters

	// Duration is the total simulated time of the run (counters cover all
	// of it); Span is the post-warmup part behind the utilization fields.
	Duration float64 `json:"duration"`
	Span     float64 `json:"span"`
	// Utilization is the time- and processor-averaged busy fraction over
	// the measured span. At a stable fixed point it converges to λ (the
	// mean-field s₁).
	Utilization float64 `json:"utilization"`
	// TransfersInFlight is the number of stolen tasks still in flight when
	// the run ended.
	TransfersInFlight int64 `json:"transfers_in_flight"`

	// QueueHist[i] is the time-sampled fraction of processors holding
	// exactly i tasks, with the final bucket absorbing all longer queues;
	// nil unless sim.Options has QueueHistDepth set. Directly comparable to
	// the mean-field occupancies π_i − π_{i+1}.
	QueueHist        []float64 `json:"queue_hist,omitempty"`
	QueueHistSamples int64     `json:"queue_hist_samples,omitempty"`

	// PerProc holds the per-processor counters, indexed by processor.
	PerProc []ProcMetrics `json:"per_proc,omitempty"`

	// WallSeconds is the wall-clock duration of the event loop and
	// EventsPerSec its throughput — the baseline number for any
	// performance work on the engine.
	WallSeconds  float64 `json:"wall_seconds"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// StealSuccessRate returns successes/attempts (0 when no attempts were
// made). At the mean-field fixed point of the basic model this is the
// probability s_T that a sampled victim holds at least T tasks.
func (m *Metrics) StealSuccessRate() float64 {
	if m.StealAttempts == 0 {
		return 0
	}
	return float64(m.StealSuccesses) / float64(m.StealAttempts)
}

// StealAttemptRate returns steal attempts per processor per unit simulated
// time over the whole run. In the mean-field equations this is the rate at
// which the steal terms fire: completions that leave the thief at or below
// its begin level, plus retries.
func (m *Metrics) StealAttemptRate(n int) float64 {
	if m.Duration <= 0 || n <= 0 {
		return 0
	}
	return float64(m.StealAttempts) / m.Duration / float64(n)
}

// Throughput returns departures per processor per unit simulated time over
// the whole run; at a stable fixed point it converges to λ.
func (m *Metrics) Throughput(n int) float64 {
	if m.Duration <= 0 || n <= 0 {
		return 0
	}
	return float64(m.Departures) / m.Duration / float64(n)
}

// Summary aggregates the metrics of a replication set: each scalar is
// summarized across replications with a 95% confidence interval, counters
// are averaged, and the queue histogram is element-wise averaged.
type Summary struct {
	Reps int `json:"reps"`

	Utilization      stats.Summary `json:"utilization"`
	StealSuccessRate stats.Summary `json:"steal_success_rate"`
	StealAttemptRate stats.Summary `json:"steal_attempt_rate"`
	Throughput       stats.Summary `json:"throughput"`
	EventsPerSec     stats.Summary `json:"events_per_sec"`

	// MeanCounters holds the per-replication average of every counter.
	MeanCounters map[string]float64 `json:"mean_counters"`

	// QueueHist is the replication-averaged queue-length histogram (nil
	// when no replication sampled one).
	QueueHist []float64 `json:"queue_hist,omitempty"`
}

// Summarize aggregates the metrics of a replication set. n is the
// processor count of the configuration (used for the per-processor rates).
func Summarize(ms []Metrics, n int) Summary {
	s := Summary{Reps: len(ms)}
	var util, succ, att, thr, eps []float64
	for i := range ms {
		m := &ms[i]
		util = append(util, m.Utilization)
		succ = append(succ, m.StealSuccessRate())
		att = append(att, m.StealAttemptRate(n))
		thr = append(thr, m.Throughput(n))
		if m.EventsPerSec > 0 {
			eps = append(eps, m.EventsPerSec)
		}
	}
	s.Utilization = stats.Summarize(util)
	s.StealSuccessRate = stats.Summarize(succ)
	s.StealAttemptRate = stats.Summarize(att)
	s.Throughput = stats.Summarize(thr)
	s.EventsPerSec = stats.Summarize(eps)

	s.MeanCounters = make(map[string]float64)
	if len(ms) > 0 {
		for i := range ms {
			ms[i].Counters.Each(func(name string, v int64) {
				s.MeanCounters[name] += float64(v)
			})
		}
		for name := range s.MeanCounters {
			s.MeanCounters[name] /= float64(len(ms))
		}
	}

	// Element-wise average of the queue histograms, truncated to the
	// shortest depth sampled.
	depth := -1
	for i := range ms {
		if ms[i].QueueHist == nil {
			continue
		}
		if depth < 0 || len(ms[i].QueueHist) < depth {
			depth = len(ms[i].QueueHist)
		}
	}
	if depth > 0 {
		s.QueueHist = make([]float64, depth)
		cnt := 0
		for i := range ms {
			if ms[i].QueueHist == nil {
				continue
			}
			for j := 0; j < depth; j++ {
				s.QueueHist[j] += ms[i].QueueHist[j]
			}
			cnt++
		}
		for j := range s.QueueHist {
			s.QueueHist[j] /= float64(cnt)
		}
	}
	return s
}

// Table renders the summary as a two-column metrics table for the CLIs.
func (s Summary) Table(title string) *table.Table {
	t := table.New(title, "metric", "value")
	row := func(name string, v stats.Summary) {
		if v.N > 0 {
			t.AddRow(name, v.String())
		}
	}
	row("utilization", s.Utilization)
	row("throughput (tasks/proc/time)", s.Throughput)
	row("steal attempt rate (/proc/time)", s.StealAttemptRate)
	row("steal success rate", s.StealSuccessRate)
	row("event-loop throughput (events/s)", s.EventsPerSec)
	for _, name := range CounterNames {
		if v, ok := s.MeanCounters[name]; ok && v > 0 {
			t.AddRow("mean "+name, fmt.Sprintf("%.1f", v))
		}
	}
	return t
}

// HistTable renders the averaged queue-length histogram (nil-safe: returns
// nil when no histogram was sampled).
func (s Summary) HistTable(title string) *table.Table {
	if s.QueueHist == nil {
		return nil
	}
	t := table.New(title, "queue length", "fraction of processors")
	for i, v := range s.QueueHist {
		label := fmt.Sprintf("%d", i)
		if i == len(s.QueueHist)-1 {
			label = fmt.Sprintf(">=%d", i)
		}
		t.AddRow(label, fmt.Sprintf("%.4f", v))
	}
	return t
}

// CounterNames lists the Counters fields in their canonical order, the
// order Each visits them in.
var CounterNames = func() (names []string) {
	new(Counters).Each(func(name string, _ int64) { names = append(names, name) })
	return names
}()

// Each invokes fn for every counter field in its canonical order. This is
// the single enumeration point shared by the replication summarizer and
// the Prometheus exposition, so a counter added to the struct only needs
// one registration.
func (c *Counters) Each(fn func(name string, v int64)) {
	fn("arrivals", c.Arrivals)
	fn("spawns", c.Spawns)
	fn("departures", c.Departures)
	fn("steal_attempts", c.StealAttempts)
	fn("steal_successes", c.StealSuccesses)
	fn("steal_fail_empty", c.StealFailEmpty)
	fn("steal_fail_threshold", c.StealFailThreshold)
	fn("retries", c.Retries)
	fn("retries_stale", c.RetriesStale)
	fn("transfers_started", c.TransfersStarted)
	fn("transfers_completed", c.TransfersCompleted)
	fn("rebalances", c.Rebalances)
	fn("rebalance_moves", c.RebalanceMoves)
	fn("bulk_steals", c.BulkSteals)
	fn("bulk_stolen_tasks", c.BulkStolenTasks)
	fn("events", c.Events)
}

// Add accumulates o's counts into c (used by servers that keep lifetime
// totals across simulation runs).
func (c *Counters) Add(o Counters) {
	c.Arrivals += o.Arrivals
	c.Spawns += o.Spawns
	c.Departures += o.Departures
	c.StealAttempts += o.StealAttempts
	c.StealSuccesses += o.StealSuccesses
	c.StealFailEmpty += o.StealFailEmpty
	c.StealFailThreshold += o.StealFailThreshold
	c.Retries += o.Retries
	c.RetriesStale += o.RetriesStale
	c.TransfersStarted += o.TransfersStarted
	c.TransfersCompleted += o.TransfersCompleted
	c.Rebalances += o.Rebalances
	c.RebalanceMoves += o.RebalanceMoves
	c.BulkSteals += o.BulkSteals
	c.BulkStolenTasks += o.BulkStolenTasks
	c.Events += o.Events
}
