package sim

import (
	"math"
	"time"

	"repro/internal/dist"
	"repro/internal/eventq"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/stats"
)

// Event kinds used by the engines.
const (
	evArrival   eventq.Kind = iota // external arrival stream for one class
	evSpawn                        // internal spawn stream (thinned)
	evDeparture                    // head-of-queue service completion
	evRetry                        // repeated steal attempt by an idle thief
	evTransfer                     // stolen task arrives at the thief
	evRebalance                    // pairwise rebalancing event
	evSample                       // periodic empirical-tail snapshot
	evSeries                       // periodic mean-load time-series snapshot
	evFluid                        // hybrid engine: advance the fluid bulk one step
	evProbe                        // hybrid engine: bulk thief probes a tracked victim
)

const (
	// Fresh task deques are carved out of one contiguous arena with
	// dequeArenaCap slots each (three-index slices, so an overfull deque
	// copies out on append instead of clobbering its neighbor). Queue
	// lengths under the stable loads the simulator runs stay far below 64,
	// so per-processor queues never regrow — which is what lets the
	// replication loop hold its allocs-per-run gate even though each
	// replication sees a different random stream. Above
	// dequeArenaMaxProcs processors the arena footprint (N·64·8 B) stops
	// being worth it and deques start empty.
	dequeArenaCap      = 64
	dequeArenaMaxProcs = 4096
)

// procSoA holds the per-processor state as a struct of arrays: one slice
// per field, indexed by processor, instead of one slice of structs. The
// layout is chosen for the victim sampler, the hottest random-access read
// in the engine: picking the most loaded of D uniform draws touches D
// random processors, and with the lengths packed densely in qlen (16 per
// cache line) those touches are near-free, where the equivalent
// array-of-structs read dragged a ~100-byte struct line per draw. The
// remaining slices keep each event's accesses on a handful of distinct
// lines instead of one wide struct line per processor.
//
// qlen mirrors q[i].Len(); every queue mutation goes through pushBack,
// popFront, or popBack to keep the mirror exact.
type procSoA struct {
	q          []taskDeque
	qlen       []int32   // dense mirror of q[i].Len(), read by victim sampling
	rate       []float64 // service-rate multiplier
	class      []int32
	awaiting   []bool    // a stolen task is in flight to this processor
	inFlight   []float64 // arrival time of the in-flight task
	emptyEpoch []uint32  // bumped whenever the queue gains a task

	// Per-processor observability counters (metrics layer). busySince is
	// only meaningful while the queue is non-empty.
	stealAttempts  []int64
	stealSuccesses []int64
	busySince      []float64
	busyTime       []float64
}

// resize prepares the state for n processors, recycling every slice (and
// each deque's buffer) from the previous run when large enough. All fields
// reset to zero values except rate, which defaults to 1.
func (ps *procSoA) resize(n int) {
	if cap(ps.qlen) >= n {
		ps.q = ps.q[:n]
		ps.qlen = ps.qlen[:n]
		ps.rate = ps.rate[:n]
		ps.class = ps.class[:n]
		ps.awaiting = ps.awaiting[:n]
		ps.inFlight = ps.inFlight[:n]
		ps.emptyEpoch = ps.emptyEpoch[:n]
		ps.stealAttempts = ps.stealAttempts[:n]
		ps.stealSuccesses = ps.stealSuccesses[:n]
		ps.busySince = ps.busySince[:n]
		ps.busyTime = ps.busyTime[:n]
		for i := range ps.q {
			ps.q[i].Reset()
		}
	} else {
		ps.q = make([]taskDeque, n)
		if n <= dequeArenaMaxProcs {
			arena := make([]float64, n*dequeArenaCap)
			for i := range ps.q {
				ps.q[i].buf = arena[i*dequeArenaCap : i*dequeArenaCap : (i+1)*dequeArenaCap]
			}
		}
		ps.qlen = make([]int32, n)
		ps.rate = make([]float64, n)
		ps.class = make([]int32, n)
		ps.awaiting = make([]bool, n)
		ps.inFlight = make([]float64, n)
		ps.emptyEpoch = make([]uint32, n)
		ps.stealAttempts = make([]int64, n)
		ps.stealSuccesses = make([]int64, n)
		ps.busySince = make([]float64, n)
		ps.busyTime = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		ps.qlen[i] = 0
		ps.rate[i] = 1
		ps.class[i] = 0
		ps.awaiting[i] = false
		ps.inFlight[i] = 0
		ps.emptyEpoch[i] = 0
		ps.stealAttempts[i] = 0
		ps.stealSuccesses[i] = 0
		ps.busySince[i] = 0
		ps.busyTime[i] = 0
	}
}

// pushBack appends a task to p's queue, keeping the qlen mirror exact.
func (ps *procSoA) pushBack(p int32, arrival float64) {
	ps.q[p].PushBack(arrival)
	ps.qlen[p]++
}

// popFront removes and returns p's task in service.
func (ps *procSoA) popFront(p int32) float64 {
	ps.qlen[p]--
	return ps.q[p].PopFront()
}

// popBack removes and returns p's most recently queued task.
func (ps *procSoA) popBack(p int32) float64 {
	ps.qlen[p]--
	return ps.q[p].PopBack()
}

// procCore is the tracked-processor core of the paper's finite-n model,
// embedded by value in both event-driven engines: FIFO service, steals
// taken from the tail of the victim's queue, retries at rate r, load and
// busy-time accounting, the samplers, and the run epilogue. The processors
// it tracks are all N under the DES engine and the Tracked sample under the
// hybrid engine; every per-processor normalization divides by that count.
// The engines own what differs between them (victim choice, arrival
// placement, the fluid bulk) and call the core directly, so the event
// loops stay monomorphic.
type procCore struct {
	o     Options
	r     *rng.Source
	cal   *eventq.Calendar
	ps    procSoA
	nproc int // processors tracked: N (DES) or Tracked (hybrid)
	now   float64

	// svcExp > 0 marks an exponential service distribution whose samples
	// the core draws directly (bypassing the interface call —
	// dist.Exponential.Sample is exactly r.Exp(rate), so the stream is
	// unchanged).
	svcExp float64

	// Load accounting: total tasks in tracked queues plus in flight.
	totalTasks   int64
	loadIntegral float64 // ∫ totalTasks dt over [warmup, now]
	loadSince    float64 // last accounting time ≥ warmup

	res        Result
	sojournSum float64
	tails      *tailSampler
	sojournH   *stats.Histogram
	seriesT    []float64
	seriesL    []float64

	// Observability layer: counters are incremented in place on the hot
	// path (no allocation); the queue-length histogram shares the evSample
	// tick with the tail sampler.
	met          metrics.Metrics
	sampleEvery  float64
	qhist        []int64
	qhistSamples int64

	// stealBuf holds the tasks of one steal while they move; retained
	// across runs so the steady-state event loop settles at zero
	// allocations per event.
	stealBuf []float64
}

// reset prepares the core for a fresh run of o over n processors,
// recycling the processor state, task deques, calendar, and scratch of any
// previous run. It draws no random numbers: the engine primes its event
// chains afterwards, in its own order.
func (c *procCore) reset(o Options, stream *rng.Source, n int) {
	stealBuf := c.stealBuf
	if cap(stealBuf) == 0 {
		stealBuf = make([]float64, 0, dequeArenaCap)
	}
	cal := c.cal
	if cal == nil {
		cal = eventq.NewCalendar(4 * n)
	} else {
		// Reset keeps the learned capacity and calibrated width; pop order
		// is invariant under calibration, so a warm calendar replays a run
		// exactly as a fresh one would.
		cal.Reset()
	}
	*c = procCore{o: o, r: stream, cal: cal, ps: c.ps, nproc: n, stealBuf: stealBuf[:0]}
	c.ps.resize(n)
	c.res.DrainTime = -1
	c.res.P50, c.res.P95, c.res.P99 = math.NaN(), math.NaN(), math.NaN()
	if ex, ok := o.Service.(dist.Exponential); ok {
		c.svcExp = ex.Rate
	}
	if o.SojournHistMax > 0 {
		c.sojournH = stats.NewHistogram(0, o.SojournHistMax, 1000)
	}
}

// result returns the measurements of the last run (backend interface).
func (c *procCore) result() Result { return c.res }

// stopCheckMask sets the cancellation polling cadence of the event loops:
// the Stop flag is loaded once every stopCheckMask+1 events. At ~100
// ns/event that bounds the reaction time to abandonment at well under a
// millisecond while keeping the hot loop's per-event cost to one
// predictable nil test.
const stopCheckMask = 4095

// advance moves the clock and the load integral to event time t and
// counts the event.
func (c *procCore) advance(t float64) {
	c.accountLoad(t)
	c.now = t
	c.met.Events++
}

// accountLoad integrates the total-load process up to time t.
func (c *procCore) accountLoad(t float64) {
	if t <= c.o.Warmup {
		return
	}
	from := c.loadSince
	if from < c.o.Warmup {
		from = c.o.Warmup
	}
	if t > from {
		c.loadIntegral += float64(c.totalTasks) * (t - from)
	}
	c.loadSince = t
}

// addTask counts a new task into the system and enqueues it at p.
func (c *procCore) addTask(p int32, arrival float64) {
	c.totalTasks++
	c.enqueue(p, arrival)
}

// enqueue appends a task already counted in totalTasks (with its original
// arrival time) to p's queue, starting service if p was idle.
func (c *procCore) enqueue(p int32, arrival float64) {
	c.ps.pushBack(p, arrival)
	c.ps.emptyEpoch[p]++
	if c.ps.qlen[p] == 1 {
		c.ps.busySince[p] = c.now
		c.scheduleDeparture(p)
	}
}

// scheduleDeparture samples a service time for the task now at the head of
// p's queue.
func (c *procCore) scheduleDeparture(p int32) {
	var s float64
	if c.svcExp > 0 {
		s = c.r.Exp(c.svcExp)
	} else {
		s = c.o.Service.Sample(c.r)
	}
	c.cal.Push(eventq.Event{Time: c.now + s/c.ps.rate[p], Kind: evDeparture, Proc: p})
}

// completeTask removes the head task of p, records its sojourn, and starts
// the next task or closes p's busy period.
func (c *procCore) completeTask(p int32) {
	arrival := c.ps.popFront(p)
	c.totalTasks--
	c.met.Departures++
	if arrival >= c.o.Warmup {
		sj := c.now - arrival
		c.sojournSum += sj
		c.res.Measured++
		if c.sojournH != nil {
			c.sojournH.Add(sj)
		}
	}
	if c.ps.qlen[p] > 0 {
		c.scheduleDeparture(p)
	} else {
		c.ps.busyTime[p] += c.busySpan(p, c.now)
	}
}

// busySpan is the post-warmup part of p's open busy period up to time t.
func (c *procCore) busySpan(p int32, t float64) float64 {
	from := c.ps.busySince[p]
	if from < c.o.Warmup {
		from = c.o.Warmup
	}
	if t > from {
		return t - from
	}
	return 0
}

// countAttempt records one steal attempt by thief.
func (c *procCore) countAttempt(thief int32) {
	c.met.StealAttempts++
	c.ps.stealAttempts[thief]++
}

// judgeSteal decides a steal attempt against a victim holding load tasks
// when the thief needs at least need there, and records the outcome.
func (c *procCore) judgeSteal(thief int32, load, need int) bool {
	if load < need || load < 2 {
		if load < 2 {
			c.met.StealFailEmpty++
		} else {
			c.met.StealFailThreshold++
		}
		return false
	}
	c.met.StealSuccesses++
	c.ps.stealSuccesses[thief]++
	return true
}

// stealCount returns how many tasks a successful steal takes from a
// load-j victim: K, or ⌈j/2⌉ under the steal-half heuristic.
func (c *procCore) stealCount(load int) int {
	if c.o.Half {
		return (load + 1) / 2
	}
	return c.o.K
}

// moveTail moves the last k tasks of v's queue to the tail of thief's,
// preserving their relative order. The tasks pass through stealBuf, which
// grows to the largest steal ever seen and is then reused.
func (c *procCore) moveTail(v, thief int32, k int) {
	tmp := c.stealBuf[:0]
	for j := 0; j < k; j++ {
		tmp = append(tmp, c.ps.popBack(v))
	}
	c.stealBuf = tmp
	for j := len(tmp) - 1; j >= 0; j-- {
		c.enqueue(thief, tmp[j])
	}
}

// armRetry schedules p's next steal retry at RetryRate, valid only while
// p's queue stays as empty as it is now.
func (c *procCore) armRetry(p int32) {
	c.cal.Push(eventq.Event{
		Time:  c.now + c.r.Exp(c.o.RetryRate),
		Kind:  evRetry,
		Proc:  p,
		Epoch: c.ps.emptyEpoch[p],
	})
}

// finish closes a run that ended at simulated time end: it settles the
// load integral and fills the Result and metrics from the core's state.
func (c *procCore) finish(end float64, wallStart time.Time) {
	o := &c.o
	c.accountLoad(end)
	c.res.End = end
	if c.res.Measured > 0 {
		c.res.MeanSojourn = c.sojournSum / float64(c.res.Measured)
	}
	if span := end - o.Warmup; span > 0 {
		c.res.MeanLoad = c.loadIntegral / span / float64(c.nproc)
	}
	if c.tails != nil {
		c.res.Tails = c.tails.tails()
	}
	c.res.SeriesTimes = c.seriesT
	c.res.SeriesLoads = c.seriesL
	if c.sojournH != nil && c.sojournH.Count() > 0 {
		c.res.P50 = c.sojournH.Quantile(0.50)
		c.res.P95 = c.sojournH.Quantile(0.95)
		c.res.P99 = c.sojournH.Quantile(0.99)
	}
	c.finishMetrics(end, time.Since(wallStart))
}

// finishMetrics closes the observability layer: it flushes open busy
// periods, derives the rate and utilization fields over the tracked
// processors, and mirrors the counters into the Result fields.
func (c *procCore) finishMetrics(end float64, wall time.Duration) {
	o := &c.o
	c.met.Duration = end
	span := end - o.Warmup
	c.met.Span = 0
	if span > 0 {
		c.met.Span = span
	}

	var busySum float64
	c.met.PerProc = make([]metrics.ProcMetrics, c.nproc)
	for i := range c.met.PerProc {
		if c.ps.qlen[i] > 0 {
			c.ps.busyTime[i] += c.busySpan(int32(i), end)
		}
		pm := &c.met.PerProc[i]
		pm.StealAttempts = c.ps.stealAttempts[i]
		pm.StealSuccesses = c.ps.stealSuccesses[i]
		pm.BusyTime = c.ps.busyTime[i]
		if span > 0 {
			pm.Utilization = c.ps.busyTime[i] / span
		}
		busySum += c.ps.busyTime[i]
	}
	if span > 0 {
		c.met.Utilization = busySum / span / float64(c.nproc)
	}
	c.met.TransfersInFlight = c.met.TransfersStarted - c.met.TransfersCompleted

	if c.qhistSamples > 0 {
		c.met.QueueHist = make([]float64, len(c.qhist))
		denom := float64(c.qhistSamples) * float64(c.nproc)
		for i, n := range c.qhist {
			c.met.QueueHist[i] = float64(n) / denom
		}
		c.met.QueueHistSamples = c.qhistSamples
	}

	c.met.WallSeconds = wall.Seconds()
	if c.met.WallSeconds > 0 {
		c.met.EventsPerSec = float64(c.met.Events) / c.met.WallSeconds
	}

	c.res.Arrived = c.met.Arrivals
	c.res.Completed = c.met.Departures
	c.res.StealAttempts = c.met.StealAttempts
	c.res.StealSuccesses = c.met.StealSuccesses
	c.res.Rebalances = c.met.Rebalances
	c.res.Metrics = c.met
}
