package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"time"
)

// heapSampler polls the live heap (the bytes the last collection found
// reachable) through runtime/metrics, which reads without stopping the
// world, and reports its maximum over the run. The heap including garbage
// not yet collected would measure the collector's pace instead: a
// collector that a busy neighbour on the machine starves of processor time
// lets garbage pile up, and its peak then differed threefold between runs
// of the same code.
type heapSampler struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	peak  uint64 // bytes
}

const heapMetric = "/gc/heap/live:bytes"

// heapSampleEvery is the polling period. The live heap changes only when a
// collection ends, and a collection cycle lasts a few milliseconds.
const heapSampleEvery = 5 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{})}
	h.sample()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-h.stopc:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	h.peak = max(h.peak, s[0].Value.Uint64())
}

// stop ends the sampling and returns the peak in MiB.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	h.wg.Wait()
	h.sample()
	return float64(h.peak) / (1 << 20)
}

// machine is the fingerprint of the machine a run measured: numbers are
// compared only between runs on machines with equal fingerprints.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OSArch     string `json:"os_arch"`
	CPU        string `json:"cpu"`
}

func thisMachine(procs int) machine {
	return machine{runtime.NumCPU(), procs, runtime.Version(), runtime.GOOS + "/" + runtime.GOARCH, cpuModel()}
}

func (m machine) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s os/arch=%s cpu=%q", m.NProc, m.GOMAXPROCS, m.Go, m.OSArch, m.CPU)
}

// cpuModel returns the processor model the kernel reports, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
