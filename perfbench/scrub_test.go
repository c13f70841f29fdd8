package main

import (
	"strings"
	"testing"

	"repro/internal/metrics"
)

func TestCanonicalBodyScrubsWallClockAtAnyDepth(t *testing.T) {
	a := `{"n": 32, "metrics": {"wall_seconds": 0.5, "events_per_sec": {"mean": 1e6, "n": 2}, "events": 100},
	       "results": [{"wall_seconds": 1, "x": 1}]}`
	b := `{"results": [{"x": 1, "wall_seconds": 7}], "n": 32,
	       "metrics": {"events": 100, "wall_seconds": 9.25, "events_per_sec": {"mean": 3, "n": 2}}}`
	ca, err := canonicalBody([]byte(a))
	if err != nil {
		t.Fatal(err)
	}
	cb, err := canonicalBody([]byte(b))
	if err != nil {
		t.Fatal(err)
	}
	if string(ca) != string(cb) {
		t.Fatalf("bodies differing only in wall-clock fields and key order canonicalize differently:\n%s\n%s", ca, cb)
	}
	if strings.Contains(string(ca), "wall_seconds") || strings.Contains(string(ca), "events_per_sec") {
		t.Fatalf("canonical body still carries a wall-clock field: %s", ca)
	}
}

func TestCanonicalBodyKeepsEveryOtherField(t *testing.T) {
	a, _ := canonicalBody([]byte(`{"events": 100, "wall_seconds": 1}`))
	b, _ := canonicalBody([]byte(`{"events": 101, "wall_seconds": 1}`))
	if string(a) == string(b) {
		t.Fatalf("a change outside the wall-clock fields was scrubbed away")
	}
	// Numbers keep every digit: 0.1+0.2 and 0.3 are different results.
	c, _ := canonicalBody([]byte(`{"mean": 0.30000000000000004}`))
	d, _ := canonicalBody([]byte(`{"mean": 0.3}`))
	if string(c) == string(d) {
		t.Fatalf("canonicalization rounded a number")
	}
	if _, err := canonicalBody([]byte(`{"unterminated"`)); err == nil {
		t.Fatalf("malformed body accepted")
	}
}

func TestDigestIgnoresWallClock(t *testing.T) {
	m := metrics.Metrics{Counters: metrics.Counters{Events: 42}, WallSeconds: 1, EventsPerSec: 42}
	d1, err := digest(m)
	if err != nil {
		t.Fatal(err)
	}
	m.WallSeconds, m.EventsPerSec = 2, 21
	d2, _ := digest(m)
	if d1 != d2 {
		t.Fatalf("digest changed with the wall clock")
	}
	m.Events++
	d3, _ := digest(m)
	if d1 == d3 {
		t.Fatalf("digest ignored an event count")
	}
}
