package bench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"multiclock/internal/graph"
	"multiclock/internal/machine"
	"multiclock/internal/sim"
	"multiclock/internal/trace"
	"multiclock/internal/ycsb"
)

// PerfSchema identifies the perf-report JSON layout.
const PerfSchema = "mcbench/perf/v1"

// PerfResult is one workload's wall-clock measurement. Throughput is
// reported as simulated page accesses per wall-clock second ("pages/sec"):
// virtual-time results are byte-identical across machines by construction,
// so wall time per access is the whole story of simulator speed.
type PerfResult struct {
	Workload    string  `json:"workload"`
	Ops         int64   `json:"ops"`
	Accesses    int64   `json:"accesses"` // simulated accesses incl. cache-filtered
	WallNS      int64   `json:"wall_ns"`
	VirtualNS   int64   `json:"virtual_ns"`
	PagesPerSec float64 `json:"pages_per_sec"`
	NsPerAccess float64 `json:"ns_per_access"`
}

// PerfReport is the full perf-suite output, serialized to BENCH_*.json.
type PerfReport struct {
	Schema    string       `json:"schema"`
	Quick     bool         `json:"quick"`
	Seed      uint64       `json:"seed"`
	Go        string       `json:"go"`
	Workloads []PerfResult `json:"workloads"`
}

// perfAccesses totals the simulated application accesses a machine served,
// including those absorbed by the modelled CPU cache (they run the full
// lookup/aging path and are exactly as expensive for the simulator).
func perfAccesses(m *machine.Machine) int64 {
	c := &m.Mem.Counters
	return c.TotalAccesses() + c.CacheFiltered
}

// measure runs body against m and fills in the wall/virtual/throughput
// numbers for everything body did.
func measure(name string, m *machine.Machine, body func() int64) PerfResult {
	start := time.Now()
	ops := body()
	wall := time.Since(start)
	res := PerfResult{
		Workload:  name,
		Ops:       ops,
		Accesses:  perfAccesses(m),
		WallNS:    wall.Nanoseconds(),
		VirtualNS: int64(m.Clock.Now()),
	}
	res.fillRates(wall)
	return res
}

// fillRates derives the throughput fields from a raw wall-clock
// measurement. A run with no accesses has genuinely zero throughput; a run
// the wall clock's granularity swallowed is clamped to the finest
// measurable interval instead — leaving PagesPerSec at 0 there would make
// the fastest possible run read as an infinite slowdown against any
// baseline.
func (r *PerfResult) fillRates(wall time.Duration) {
	if r.Accesses <= 0 {
		r.PagesPerSec = 0
		r.NsPerAccess = 0
		return
	}
	if wall <= 0 {
		wall = 1
		r.WallNS = 1
	}
	r.PagesPerSec = float64(r.Accesses) / wall.Seconds()
	r.NsPerAccess = float64(r.WallNS) / float64(r.Accesses)
}

// perfYCSB measures one YCSB workload (load + run) on multiclock.
func perfYCSB(sc scale, seed uint64, w ycsb.Workload) PerfResult {
	p := mustPolicy("multiclock", sc.Interval)
	m, _, client := ycsbCell(sc, seed, p, "", false, seed^0x9c5b)
	res := measure("ycsb-"+strings.ToLower(w.Name), m, func() int64 {
		client.Load()
		client.Run(w, sc.OpsPerWorkload)
		return m.Ops
	})
	stopDaemons(p)
	return res
}

// perfGAPBS measures graph build + PageRank on multiclock.
func perfGAPBS(sc scale, seed uint64) PerfResult {
	p := mustPolicy("multiclock", sc.Interval)
	gsc := sc
	gsc.DRAMPages = sc.GraphDRAMPages
	gsc.PMPages = sc.GraphPMPages
	m := machineFor(gsc, seed, p)
	res := measure("gapbs", m, func() int64 {
		g := graph.Generate(m, graph.GenConfig{
			Vertices:  sc.GraphVertices,
			Degree:    sc.GraphDegree,
			Kronecker: true,
			Seed:      seed,
		})
		g.PageRank(sc.PRIters)
		return m.Ops
	})
	stopDaemons(p)
	return res
}

// perfKVStore measures a raw store churn loop: uniform get/set/delete with
// no distribution machinery, so the access engine dominates the wall clock.
func perfKVStore(sc scale, seed uint64) PerfResult {
	p := mustPolicy("multiclock", sc.Interval)
	m, store, _ := ycsbCell(sc, seed, p, "", false, 0)
	rng := sim.NewRNG(seed ^ 0x6b76)
	res := measure("kvstore", m, func() int64 {
		for i := int64(0); i < sc.Records; i++ {
			store.Insert(uint64(i), 1000)
			m.EndOp()
		}
		n := uint64(sc.Records)
		for i := int64(0); i < sc.OpsPerWorkload; i++ {
			key := rng.Uint64() % n
			switch i % 4 {
			case 0, 1:
				store.Get(key)
			case 2:
				store.Set(key, 1000)
			default:
				store.ReadModifyWrite(key)
			}
			m.EndOp()
		}
		return m.Ops
	})
	stopDaemons(p)
	return res
}

// perfMotivation measures the Fig. 1 rubis pattern generator: a small
// population with heavy cache-hit traffic, the simulator's most
// access-engine-bound shape.
func perfMotivation(sc scale, seed uint64, duration sim.Duration) PerfResult {
	p := mustPolicy("multiclock", sc.Interval)
	gsc := sc
	gsc.DRAMPages = 256
	gsc.PMPages = 2048
	m := machineFor(gsc, seed, p)
	as := m.NewSpace()
	res := measure("motivation", m, func() int64 {
		trace.RunPattern(m, as, trace.PatternRUBiS, duration, seed)
		return m.Ops
	})
	stopDaemons(p)
	return res
}

// RunPerf executes the perf suite sequentially (wall-clock measurements
// need the machine to themselves) and returns the report.
func RunPerf(opt Options) PerfReport {
	sc := opt.scale()
	motivationDur := 4 * sim.Second
	if opt.Quick {
		motivationDur = 1 * sim.Second
	}
	rep := PerfReport{
		Schema: PerfSchema,
		Quick:  opt.Quick,
		Seed:   opt.Seed,
		Go:     runtime.Version(),
	}
	rep.Workloads = append(rep.Workloads,
		perfYCSB(sc, opt.Seed, ycsb.WorkloadA),
		perfYCSB(sc, opt.Seed, ycsb.WorkloadB),
		perfYCSB(sc, opt.Seed, ycsb.WorkloadC),
		perfGAPBS(sc, opt.Seed),
		perfKVStore(sc, opt.Seed),
		perfMotivation(sc, opt.Seed, motivationDur),
	)
	return rep
}

// MarshalPerf renders the report as stable, indented JSON.
func MarshalPerf(rep PerfReport) ([]byte, error) {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// ParsePerf loads a BENCH_*.json report, validating the schema tag.
func ParsePerf(data []byte) (PerfReport, error) {
	var rep PerfReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("bench: perf report: %w", err)
	}
	if rep.Schema != PerfSchema {
		return rep, fmt.Errorf("bench: perf report schema %q, want %q", rep.Schema, PerfSchema)
	}
	if len(rep.Workloads) == 0 {
		return rep, fmt.Errorf("bench: perf report has no workloads")
	}
	return rep, nil
}

// FormatPerf renders the report as a human-readable table.
func FormatPerf(rep PerfReport) string {
	var b strings.Builder
	mode := "full"
	if rep.Quick {
		mode = "quick"
	}
	fmt.Fprintf(&b, "perf suite (%s, seed %d, %s)\n", mode, rep.Seed, rep.Go)
	fmt.Fprintf(&b, "%-12s %12s %14s %12s %12s\n", "workload", "accesses", "pages/sec", "ns/access", "wall")
	for _, w := range rep.Workloads {
		fmt.Fprintf(&b, "%-12s %12d %14.0f %12.1f %12s\n",
			w.Workload, w.Accesses, w.PagesPerSec, w.NsPerAccess,
			time.Duration(w.WallNS).Round(time.Millisecond))
	}
	return b.String()
}

// ComparePerf checks cur against a baseline report: any workload present in
// both whose pages/sec fell below baseline/tolerance is a regression, and
// any workload the baseline measured that the current report dropped is a
// violation outright — a silently vanished workload would otherwise pass
// the gate with its regressions unmeasured. The tolerance is deliberately
// generous — CI machines vary severalfold — so a violation means the
// simulator genuinely got slower, not noisier. Virtual results are also
// cross-checked: same scale and seed must reproduce the baseline's virtual
// time exactly, which catches a perf "win" that moved simulation behavior.
func ComparePerf(cur, base PerfReport, tolerance float64) []string {
	var violations []string
	if tolerance <= 1 {
		tolerance = 1
	}
	if cur.Quick != base.Quick {
		return []string{fmt.Sprintf("scale mismatch: current quick=%v, baseline quick=%v — not comparable", cur.Quick, base.Quick)}
	}
	baseBy := make(map[string]PerfResult, len(base.Workloads))
	for _, w := range base.Workloads {
		baseBy[w.Workload] = w
	}
	curNames := make(map[string]bool, len(cur.Workloads))
	for _, w := range cur.Workloads {
		curNames[w.Workload] = true
	}
	for _, bw := range base.Workloads {
		if !curNames[bw.Workload] {
			violations = append(violations, fmt.Sprintf(
				"%s: measured by the baseline but missing from the current report — suite shrank",
				bw.Workload))
		}
	}
	for _, w := range cur.Workloads {
		bw, ok := baseBy[w.Workload]
		if !ok {
			continue
		}
		if floor := bw.PagesPerSec / tolerance; w.PagesPerSec < floor {
			violations = append(violations, fmt.Sprintf(
				"%s: %.0f pages/sec is below %.0f (baseline %.0f / tolerance %.1f×)",
				w.Workload, w.PagesPerSec, floor, bw.PagesPerSec, tolerance))
		}
		if cur.Seed == base.Seed && w.VirtualNS != bw.VirtualNS {
			violations = append(violations, fmt.Sprintf(
				"%s: virtual time %dns != baseline %dns at the same seed — simulation behavior moved",
				w.Workload, w.VirtualNS, bw.VirtualNS))
		}
	}
	return violations
}
