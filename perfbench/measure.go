package main

import (
	"fmt"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"multiclock/internal/machine"
	"multiclock/internal/mem"
)

// phase is one repetition's measurement: its set-up time and everything
// the measured phase did, on both clocks.
type phase struct {
	setupS     float64 // host seconds from the repetition's start to its first measured op
	wallS      float64 // host seconds of the measured phase
	cpuS       float64 // process user+sys seconds of the measured phase
	allocBytes float64 // Go heap bytes allocated in the measured phase
	gcCycles   float64
	gcCPUFrac  float64 // GC share of the process's CPU in the measured phase
	heapMB     float64 // live-and-garbage heap at the end of the measured phase
	peakRSSMB  float64 // the process's peak resident set during the repetition

	accesses  int64  // simulated page accesses, cache-filtered included
	virtualNS int64  // simulated nanoseconds of the measured phase
	counts    counts // measured-phase deltas
	repCounts counts // totals over the whole repetition, set-up included
	// sig is the virtual time plus every memory-system counter at the
	// phase's end; repetitions of one build and seed must agree on it.
	sig string

	// Workload-specific layer values (kvstore stats, export sizes, ...).
	vals map[string]float64
}

// counts is the slice of mem.Counters the per-layer metrics read.
type counts struct {
	fastAccesses, allAccesses, cacheFiltered int64
	minorFaults, hintFaults                  int64
	promotions, demotions, migrateFails      int64
	swapOuts, pagesScanned, shadowHits       int64
	migrationBusyNS                          int64
}

func countsOf(c *mem.Counters) counts {
	return counts{
		fastAccesses:    c.Reads[0] + c.Writes[0],
		allAccesses:     c.TotalAccesses(),
		cacheFiltered:   c.CacheFiltered,
		minorFaults:     c.MinorFaults,
		hintFaults:      c.HintFaults,
		promotions:      c.Promotions,
		demotions:       c.Demotions,
		migrateFails:    c.MigrateFails,
		swapOuts:        c.SwapOuts,
		pagesScanned:    c.PagesScanned,
		shadowHits:      c.ShadowHits,
		migrationBusyNS: int64(c.MigrationBusy),
	}
}

func (a counts) minus(b counts) counts {
	return counts{
		fastAccesses:    a.fastAccesses - b.fastAccesses,
		allAccesses:     a.allAccesses - b.allAccesses,
		cacheFiltered:   a.cacheFiltered - b.cacheFiltered,
		minorFaults:     a.minorFaults - b.minorFaults,
		hintFaults:      a.hintFaults - b.hintFaults,
		promotions:      a.promotions - b.promotions,
		demotions:       a.demotions - b.demotions,
		migrateFails:    a.migrateFails - b.migrateFails,
		swapOuts:        a.swapOuts - b.swapOuts,
		pagesScanned:    a.pagesScanned - b.pagesScanned,
		shadowHits:      a.shadowHits - b.shadowHits,
		migrationBusyNS: a.migrationBusyNS - b.migrationBusyNS,
	}
}

// accesses totals the simulated application accesses, including those the
// modelled CPU cache absorbed: they run the full lookup path and cost the
// simulator as much as any other.
func (c counts) accesses() int64 { return c.allAccesses + c.cacheFiltered }

// host is a reading of the process's host-side resource counters.
type host struct {
	wall       time.Time
	cpuS       float64
	totalAlloc uint64
	heapAlloc  uint64
	numGC      uint32
	gcCPU      float64
	allCPU     float64
}

var cpuSamples = []rtmetrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readHost() host {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rtmetrics.Read(cpuSamples)
	return host{
		wall:       time.Now(),
		cpuS:       processCPUSeconds(),
		totalAlloc: ms.TotalAlloc,
		heapAlloc:  ms.HeapAlloc,
		numGC:      ms.NumGC,
		gcCPU:      cpuSamples[0].Value.Float64(),
		allCPU:     cpuSamples[1].Value.Float64(),
	}
}

func processCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS restarts the kernel's peak-RSS count (VmHWM) at the current
// resident set. Where the kernel refuses, peakRSSMB falls back to the
// process's lifetime peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set since the last
// resetPeakRSS.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// meter brackets one measured phase. The phase may end on a different
// machine than it started on (a restored checkpoint carries the counters and
// clock over), so start and stop each take the machine current at the time.
type meter struct {
	setupS  float64
	h       host
	c       counts
	virtual int64
}

// startMeter opens the measured phase; repStart is when the repetition's
// set-up began.
func startMeter(repStart time.Time, m *machine.Machine) meter {
	h := readHost()
	return meter{
		setupS:  h.wall.Sub(repStart).Seconds(),
		h:       h,
		c:       countsOf(&m.Mem.Counters),
		virtual: int64(m.Clock.Now()),
	}
}

// stop closes the measured phase on m.
func (mt meter) stop(m *machine.Machine) phase {
	h := readHost()
	end := countsOf(&m.Mem.Counters)
	c := end.minus(mt.c)
	return phase{
		setupS:     mt.setupS,
		wallS:      h.wall.Sub(mt.h.wall).Seconds(),
		cpuS:       h.cpuS - mt.h.cpuS,
		allocBytes: float64(h.totalAlloc - mt.h.totalAlloc),
		gcCycles:   float64(h.numGC - mt.h.numGC),
		gcCPUFrac:  ratio(h.gcCPU-mt.h.gcCPU, h.allCPU-mt.h.allCPU),
		heapMB:     float64(h.heapAlloc) / (1 << 20),
		accesses:   c.accesses(),
		virtualNS:  int64(m.Clock.Now()) - mt.virtual,
		counts:     c,
		repCounts:  end,
		sig:        signature(m),
		vals:       map[string]float64{},
	}
}

// signature renders the machine's virtual clock and every memory-system
// counter.
func signature(m *machine.Machine) string {
	var b strings.Builder
	fmt.Fprintf(&b, "virtual_ns=%d", int64(m.Clock.Now()))
	m.Mem.Counters.Each(func(name string, v int64) { fmt.Fprintf(&b, " %s=%d", name, v) })
	return b.String()
}
