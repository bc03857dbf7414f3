package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// refKernel is a fixed piece of stdlib-only work timed at every batch and
// epoch boundary, over a 32 MiB arena it allocates once: two million random
// read-modify-writes (memory latency), then four passes that clear, write and
// read the arena a cache line at a time (memory bandwidth). It allocates
// nothing while it runs, so neither the collector nor the program's live heap
// can change its speed; what does change it is what also slows the workloads
// on a shared host — a busy memory system.
//
// This host's busy phases last tens of seconds and slow the allocation-heavy
// campaigns by up to 2x (an L1-resident loop barely notices them), so a 20 s
// run cannot average them out: over 9-batch windows the throughput estimate
// spread by 8–30% across the campaign workloads. Every timing the benchmark
// reports is therefore in reference time: measured × refNominalMs / (kernel
// time around the measurement), which brought those spreads to 4–6%. An
// allocating kernel tracked the workloads no better and its speed depends on
// the program's heap; either half of this kernel alone did well on some
// workloads and badly on others. Raw times and the kernel's own p50 and spread
// are always printed beside the corrected ones.
type refKernel struct {
	arena   []byte
	sink    int
	samples []float64 // every sample taken, ms
}

const (
	refArenaBytes = 32 << 20
	refSteps      = 2_000_000
	refPasses     = 4
	// refNominalMs is the kernel's time on the reference sandbox when quiet
	// (2 vCPU Xeon 2.1 GHz, go1.24): a timing in reference time reads as it
	// would on that host. Any constant would gate regressions equally well.
	refNominalMs = 100.0
)

func newRefKernel() *refKernel {
	k := &refKernel{arena: make([]byte, refArenaBytes)}
	k.sample() // fault the arena in
	k.samples = k.samples[:0]
	return k
}

// sample runs the kernel once and returns its time in milliseconds.
func (k *refKernel) sample() float64 {
	start := time.Now()
	a := k.arena
	x, n := uint64(88172645463325252), uint64(len(a))
	for i := 0; i < refSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		a[x%n]++
	}
	acc := 0
	for pass := 0; pass < refPasses; pass++ {
		clear(a)
		for i := 0; i < len(a); i += 64 {
			a[i] = byte(i)
		}
		for i := 0; i < len(a); i += 64 {
			acc += int(a[i])
		}
	}
	k.sink += acc
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	k.samples = append(k.samples, ms)
	return ms
}

// refFactor converts a measured time to reference time given the kernel
// samples taken just before and just after it.
func refFactor(before, after float64) float64 {
	return refNominalMs / ((before + after) / 2)
}

// memCounters are the runtime's cumulative allocation and GC counters.
type memCounters struct {
	allocBytes, mallocs, gcPauseNs uint64
	gcCycles                       uint32
}

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{allocBytes: ms.TotalAlloc, mallocs: ms.Mallocs, gcPauseNs: ms.PauseTotalNs, gcCycles: ms.NumGC}
}

func (a memCounters) sub(b memCounters) memCounters {
	return memCounters{a.allocBytes - b.allocBytes, a.mallocs - b.mallocs, a.gcPauseNs - b.gcPauseNs, a.gcCycles - b.gcCycles}
}

func (a memCounters) add(b memCounters) memCounters {
	return memCounters{a.allocBytes + b.allocBytes, a.mallocs + b.mallocs, a.gcPauseNs + b.gcPauseNs, a.gcCycles + b.gcCycles}
}

// peakRSSMB is the process's resident-set high-water mark: VmHWM from
// /proc/self/status, or getrusage where that file is missing.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if len(fields) >= 1 {
					if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}
