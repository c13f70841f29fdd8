package main

import "testing"

func TestSelfTimesSubtractChildren(t *testing.T) {
	spans := []span{
		{Name: "round", Layer: layerHarness, Start: 0, End: 100, Parent: noSpan},
		{Name: "run a", Layer: layerSim, Start: 10, End: 40, Parent: 0},
		{Name: "run b", Layer: layerSim, Start: 40, End: 90, Parent: 0},
		{Name: "rpc", Layer: layerCluster, Start: 200, End: 205, Parent: noSpan},
	}
	self := selfTimes(spans)
	if self[layerHarness] != 20 || self[layerSim] != 80 || self[layerCluster] != 5 {
		t.Fatalf("self times %v, want harness 20, sim 80, cluster 5", self)
	}
	if calls := layerCalls(spans); calls[layerSim] != 2 || calls[layerHarness] != 1 {
		t.Fatalf("calls %v", calls)
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", layerSim, noSpan, 1)
	tr.end(id)
	if id != noSpan {
		t.Fatalf("nil tracer returned span id %d", id)
	}
}

func TestTracerRecordsParentAndRequest(t *testing.T) {
	tr := newTracer()
	root := tr.begin("request", layerHarness, noSpan, 7)
	child := tr.begin("call", layerServe, root, 7)
	tr.end(child)
	open := tr.begin("left open", layerSim, noSpan, 8)
	_ = open
	tr.end(root)
	s := tr.snapshot()
	if len(s) != 3 || s[child].Parent != root || s[child].Req != 7 {
		t.Fatalf("spans %+v", s)
	}
	if s[root].End < s[child].End || s[child].Start < s[root].Start {
		t.Fatalf("child %+v not inside root %+v", s[child], s[root])
	}
	if s[open].End != s[open].Start {
		t.Fatalf("open span not closed at its start: %+v", s[open])
	}
}
