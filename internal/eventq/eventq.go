// Package eventq implements the future event list of the simulator's DES
// and hybrid engines: Calendar, an adaptive calendar queue of timestamped
// events with O(1) amortized Push and PopMin.
//
// Events are ordered by time with a monotonically increasing sequence
// number as a tiebreaker, so simultaneous events fire in insertion order and
// runs are fully deterministic. That tie-break is part of the simulator's
// determinism contract: fixed-seed goldens, cluster stolen-replication
// byte-identity, and the wscheck TOST suites all pin exact event orderings.
// The package tests hold the calendar to it against a 4-ary heap oracle
// that lives only in the tests. Cancellation uses epoch counters checked by
// the caller on dequeue (lazy invalidation) rather than in-queue deletion;
// the queue itself only needs Push and PopMin.
package eventq

// Kind identifies the type of a simulator event. The simulator defines the
// meaning of each value; the queue treats it as opaque.
type Kind uint8

// Event is one entry in the future event list.
type Event struct {
	Time  float64 // simulated firing time
	seq   uint64  // insertion order, breaks ties deterministically
	Kind  Kind    // event type tag (opaque to the queue)
	Proc  int32   // processor index the event applies to
	Aux   int32   // second processor / parameter, event-specific
	Epoch uint32  // validity epoch for lazy cancellation
}
