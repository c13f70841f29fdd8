package main

import (
	"runtime/metrics"
	"syscall"
	"time"
)

// cost is what the process has spent up to an instant: processor time and
// bytes allocated on the heap. The difference of two costs is what the
// interval between them cost, which the gated metrics divide by the
// operations of the interval.
//
// The processor time is user and system time summed over every thread, the
// garbage collector's included. Linux charges a thread only for the time
// it ran: time spent waiting for a processor held by another process, or
// while the hypervisor gave the vCPU to another guest, is not counted. So
// a busy neighbour on a shared machine stretches the wall time of an
// operation but not its processor time. The allocated bytes depend only on
// the work done.
type cost struct {
	CPU   time.Duration
	Alloc uint64
}

const allocMetric = "/gc/heap/allocs:bytes"

func costNow() cost {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error())
	}
	s := []metrics.Sample{{Name: allocMetric}}
	metrics.Read(s)
	return cost{time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), s[0].Value.Uint64()}
}

// since returns the cost of the interval from c0 to c in CPU milliseconds
// and KiB allocated.
func (c cost) since(c0 cost) (cpuMs, allocKiB float64) {
	return (c.CPU - c0.CPU).Seconds() * 1e3, float64(c.Alloc-c0.Alloc) / 1024
}
