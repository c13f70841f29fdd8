package main

import "testing"

var sinkBytes [][]byte

func TestCostCountsProcessorTimeAndAllocation(t *testing.T) {
	c0 := costNow()
	x := uint64(1)
	for i := 0; i < 20_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	for i := 0; i < 256; i++ {
		sinkBytes = append(sinkBytes, make([]byte, 16<<10))
	}
	cpuMs, allocKiB := costNow().since(c0)
	if x == 0 || cpuMs <= 0 {
		t.Errorf("a busy loop cost %v ms of processor time", cpuMs)
	}
	// The runtime adds a processor's allocations to the total when the
	// processor refills its cache, so the last few can be missing.
	if allocKiB < 0.95*256*16 {
		t.Errorf("allocating 4096 KiB counted %v KiB", allocKiB)
	}
}
