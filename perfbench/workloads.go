package main

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"time"

	"multiclock/internal/bench"
	"multiclock/internal/graph"
	"multiclock/internal/kvstore"
	"multiclock/internal/lifecycle"
	"multiclock/internal/machine"
	"multiclock/internal/metrics"
	"multiclock/internal/sim"
	"multiclock/internal/slo"
	"multiclock/internal/snapshot"
	"multiclock/internal/timeseries"
	"multiclock/internal/traceexport"
	"multiclock/internal/ycsb"
)

// workload is one benchmark input. rep runs one repetition — set-up, the
// measured phase and its checks — recording spans on tr (nil: untraced).
// Every repetition of a workload does the same deterministic work.
type workload interface {
	rep(tr *Tracer, ck *checks) phase
	// draws is how many zipfian key draws one repetition makes over how
	// many records (0 for a workload with no YCSB client).
	draws() (n, records int64)
}

// twinned is a workload with a telemetry-off twin of its measured run.
type twinned interface {
	twin() phase
}

var workloadNames = []string{"ycsb-paper", "gapbs-kron", "ycsb-observed", "soak-nomad"}

// Sizes. A repetition takes 1-2.5 host seconds on a 2-core Xeon: long
// enough that the daemons run hundreds of passes, short enough that a
// 25-second run holds ten or more repetitions to take medians over.
const (
	scanInterval = 10 * sim.Millisecond
	dramFrames   = 1024
	pmFrames     = 24_576
	records      = 24_000 // of ycsb.DefaultClientConfig's 1000 bytes
	// ycsbOps is per YCSB workload of the paper sequence.
	ycsbOps = 300_000
	// observedOps is the single YCSB-A run of ycsb-observed.
	observedOps = 300_000

	graphPMFrames = 16_384
	graphVertices = 96_000
	graphDegree   = 8
	prIters       = 5
	bfsSources    = 3

	soakOps         = 150_000
	soakCheckpoints = 20

	traceEvents = 65_536
	sloSpec     = "p99(access_latency_pm_read_ns) < 3us over 1ms, 99%"
)

func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "ycsb-paper":
		return &ycsbPaper{seed: seed}, nil
	case "gapbs-kron":
		return newGapbs(seed), nil
	case "ycsb-observed":
		return &ycsbObserved{seed: seed}, nil
	case "soak-nomad":
		return &soak{seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// newMachine builds the experiment machine the bench package's runners use:
// one DRAM and one PM node, 1 µs of CPU per operation.
func newMachine(policy string, dram, pm int, seed uint64) *machine.Machine {
	p, err := bench.NewPolicy(policy, scanInterval)
	if err != nil {
		panic(err) // the names above are fixed
	}
	cfg := machine.DefaultConfig()
	cfg.Mem.DRAMNodes = []int{dram}
	cfg.Mem.PMNodes = []int{pm}
	cfg.Seed = seed
	cfg.OpCost = 1 * sim.Microsecond
	return machine.New(cfg, p)
}

func stopDaemons(m *machine.Machine) {
	if st, ok := m.Policy.(machine.Stopper); ok {
		st.Stop()
	}
}

// newYCSB builds the store and client on m, as bench's YCSB runners do.
func newYCSB(m *machine.Machine, seed uint64) (*kvstore.Store, *ycsb.Client) {
	storeCfg := kvstore.DefaultConfig(records)
	storeCfg.ItemTouches = 8
	store := kvstore.New(m, storeCfg)
	cfg := ycsb.DefaultClientConfig(records)
	cfg.Seed = seed ^ 0x9c5b
	return store, ycsb.NewClient(m, store, cfg)
}

// stepSample is the traced run's sampling period for Run.Step timings.
// Reading the host clock twice costs ~120 ns against a ~550 ns step, so
// timing every step would inflate the traced run by a third; one step in
// sixteen still gives the latency histogram 10^4-10^5 samples per repetition.
const stepSample = 16

// runYCSB drives one YCSB workload through Run.Step. Traced, every
// stepSample-th Step is timed as an aggregated call; the others count as
// the workload span's self time. Untraced, the loop is Client.Run's own.
func runYCSB(tr *Tracer, c *ycsb.Client, w ycsb.Workload, ops int64) ycsb.RunResult {
	tr.Begin("ycsb.run." + w.Name)
	r := c.StartRun(w, ops)
	if tr == nil {
		for r.Step() {
		}
	} else {
		for i, more := 0, true; more; i++ {
			if i%stepSample != 0 {
				more = r.Step()
				continue
			}
			tr.BeginHot("ycsb.step")
			more = r.Step()
			tr.End()
		}
	}
	res := r.Finish()
	tr.End()
	return res
}

// zipfDraws counts the zipfian key draws of ops operations of each
// workload: every operation but an insert draws one, through Scrambled or,
// for workload D, through Latest, which wraps the same generator.
func zipfDraws(ws []ycsb.Workload, ops int64) int64 {
	var n float64
	for _, w := range ws {
		if w.Dist != ycsb.DistUniform {
			n += float64(ops) * (1 - w.InsertProp)
		}
	}
	return int64(n)
}

func kvstoreVals(ph *phase, st kvstore.Stats) {
	ph.vals["kvstore.get_hit_ratio"] = ratio(float64(st.GetHits), float64(st.Gets))
	ph.vals["kvstore.evicted_for_space"] = float64(st.EvictedForSpace)
}

func maxP99(rs []ycsb.RunResult) float64 {
	var p float64
	for _, r := range rs {
		p = max(p, float64(r.P99)/1e3)
	}
	return p
}

// ycsb-paper: the paper's headline experiment (Fig. 5).
type ycsbPaper struct{ seed uint64 }

func (w *ycsbPaper) draws() (int64, int64) { return zipfDraws(ycsb.PaperSequence, ycsbOps), records }

func (w *ycsbPaper) rep(tr *Tracer, ck *checks) phase {
	start := time.Now()
	tr.Begin("setup")
	m := newMachine("multiclock", dramFrames, pmFrames, w.seed)
	tr.timeDaemons(m)
	store, client := newYCSB(m, w.seed)
	tr.Region("ycsb.load", client.Load)
	tr.End()

	mt := startMeter(start, m)
	tr.Begin("measure")
	var rs []ycsb.RunResult
	for _, wl := range ycsb.PaperSequence {
		rs = append(rs, runYCSB(tr, client, wl, ycsbOps))
	}
	tr.End()
	ph := mt.stop(m)

	stopDaemons(m)
	ck.noErr(m.CheckInvariants(), "ycsb-paper invariants")
	for _, r := range rs {
		ck.check(r.Ops == ycsbOps && !r.Unsupported, "ycsb-paper workload %s ran %d of %d ops", r.Workload, r.Ops, ycsbOps)
	}
	kvstoreVals(&ph, store.Stats)
	ph.vals["ycsb.sim_op_p99_us"] = maxP99(rs)
	return ph
}

// ycsb-observed: YCSB-A with every telemetry consumer on, ending in the
// metrics JSON and Perfetto exports.
type ycsbObserved struct{ seed uint64 }

func (w *ycsbObserved) draws() (int64, int64) {
	return zipfDraws([]ycsb.Workload{ycsb.WorkloadA}, observedOps), records
}

func (w *ycsbObserved) rep(tr *Tracer, ck *checks) phase {
	start := time.Now()
	tr.Begin("setup")
	m := newMachine("multiclock", dramFrames, pmFrames, w.seed)
	reg := metrics.NewRegistry(traceEvents)
	col := metrics.NewCollector(reg).Bind(m)
	m.SetMetrics(col)
	m.Attach(col)
	series := timeseries.New(m, scanInterval, 0)
	life := lifecycle.New(lifecycle.Config{SampleMod: 4}).Bind(m)
	spec, err := slo.Parse(sloSpec)
	if err != nil {
		panic(err) // the spec is a constant
	}
	objectives := slo.New(m.Clock, reg, spec, 0)
	m.Faults.EnableWindowLog(0)
	tr.timeDaemons(m)
	store, client := newYCSB(m, w.seed)
	tr.Region("ycsb.load", client.Load)
	tr.End()

	mt := startMeter(start, m)
	tr.Begin("measure")
	res := runYCSB(tr, client, ycsb.WorkloadA, observedOps)
	exportStart := time.Now()
	var run metrics.RunExport
	var doc, perfetto []byte
	var exportErr error
	tr.Region("metrics.export", func() { run = col.Run("ycsb-observed") })
	tr.Region("timeseries.export", func() { run.Series = series.Export() })
	tr.Region("lifecycle.export", func() { run.Lifecycle = life.Export() })
	tr.Region("slo.export", func() { run.SLO = objectives.Export() })
	run.Topology = metrics.TopologyOf(m)
	run.Faults = metrics.FaultsOf(m)
	tr.Region("metrics.export", func() { doc, exportErr = metrics.ExportJSON(run) })
	tr.Region("traceexport.build", func() { perfetto = traceexport.Build([]metrics.RunExport{run}) })
	exportS := time.Since(exportStart).Seconds()
	tr.End()
	ph := mt.stop(m)

	stopDaemons(m)
	ck.noErr(m.CheckInvariants(), "ycsb-observed invariants")
	ck.check(res.Ops == observedOps, "ycsb-observed ran %d of %d ops", res.Ops, observedOps)
	ck.noErr(exportErr, "metrics export")
	_, err = metrics.ReadExport(doc)
	ck.noErr(err, "metrics.ReadExport of the metrics JSON")
	ck.noErr(checkPerfetto(perfetto), "Perfetto trace")

	kvstoreVals(&ph, store.Stats)
	ph.vals["ycsb.sim_op_p99_us"] = float64(res.P99) / 1e3
	ph.vals["metrics.export_bytes"] = float64(len(doc))
	ph.vals["traceexport.bytes"] = float64(len(perfetto))
	ph.vals["export_s"] = exportS
	return ph
}

// twin runs the same load and YCSB-A with telemetry off.
func (w *ycsbObserved) twin() phase {
	start := time.Now()
	m := newMachine("multiclock", dramFrames, pmFrames, w.seed)
	_, client := newYCSB(m, w.seed)
	client.Load()
	mt := startMeter(start, m)
	client.Run(ycsb.WorkloadA, observedOps)
	ph := mt.stop(m)
	stopDaemons(m)
	return ph
}

// checkPerfetto parses a Chrome-trace-event document and requires events.
func checkPerfetto(doc []byte) error {
	var tr struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(doc, &tr); err != nil {
		return err
	}
	if len(tr.TraceEvents) == 0 {
		return fmt.Errorf("no trace events")
	}
	return nil
}

// gapbs-kron: GAPBS on a Kronecker graph (Fig. 6).
type gapbs struct {
	seed    uint64
	cfg     graph.GenConfig
	ref     *hostGraph
	sources []int32
	depths  [][]int32
	labels  []int32
}

func newGapbs(seed uint64) *gapbs {
	cfg := graph.GenConfig{Vertices: graphVertices, Degree: graphDegree, Kronecker: true, Seed: seed}
	// The host-side reference is built once from the same edge list the
	// simulated graph is built from; it is not part of any repetition.
	ref := newHostGraph(graph.GenerateEdges(cfg), graphVertices)
	g := &gapbs{seed: seed, cfg: cfg, ref: ref}
	rng := sim.NewRNG(seed ^ 0xbf5)
	for len(g.sources) < bfsSources {
		v := int32(rng.Intn(graphVertices))
		if ref.degree(v) > 0 {
			g.sources = append(g.sources, v)
			g.depths = append(g.depths, ref.bfsDepths(v))
		}
	}
	g.labels = ref.components()
	return g
}

func (w *gapbs) draws() (int64, int64) { return 0, 0 }

func (w *gapbs) rep(tr *Tracer, ck *checks) phase {
	start := time.Now()
	tr.Begin("setup")
	m := newMachine("multiclock", dramFrames, graphPMFrames, w.seed)
	tr.timeDaemons(m)
	var edges []graph.Edge
	var g *graph.Graph
	tr.Region("graph.generate_edges", func() { edges = graph.GenerateEdges(w.cfg) })
	tr.Region("graph.build", func() { g = graph.Build(m, edges, w.cfg.Vertices, w.cfg.Seed) })
	tr.End()

	mt := startMeter(start, m)
	tr.Begin("measure")
	var parents [][]int32
	var labels []int32
	tr.Region("graph.pagerank", func() { g.PageRank(prIters) })
	tr.Region("graph.bfs", func() {
		for _, s := range w.sources {
			parents = append(parents, g.BFS(s))
		}
	})
	tr.Region("graph.cc", func() { labels = g.CC() })
	tr.End()
	ph := mt.stop(m)

	stopDaemons(m)
	ck.noErr(m.CheckInvariants(), "gapbs-kron invariants")
	for i, s := range w.sources {
		ck.noErr(w.ref.checkBFS(s, parents[i], w.depths[i]), fmt.Sprintf("BFS from %d", s))
	}
	ck.check(slices.Equal(labels, w.labels), "CC labels differ from the host reference")
	return ph
}

// hostGraph is the symmetrized, deduplicated adjacency of an edge list in
// host memory: the reference the simulated kernels are checked against.
type hostGraph struct {
	off []int32
	adj []int32
}

func newHostGraph(edges []graph.Edge, n int) *hostGraph {
	lists := make([][]int32, n)
	for _, e := range edges {
		lists[e.U] = append(lists[e.U], e.V)
		lists[e.V] = append(lists[e.V], e.U)
	}
	g := &hostGraph{off: make([]int32, n+1)}
	for u, l := range lists {
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
		for i, v := range l {
			if i == 0 || v != l[i-1] {
				g.adj = append(g.adj, v)
			}
		}
		g.off[u+1] = int32(len(g.adj))
	}
	return g
}

func (g *hostGraph) neighbors(u int32) []int32 { return g.adj[g.off[u]:g.off[u+1]] }

func (g *hostGraph) degree(u int32) int { return len(g.neighbors(u)) }

func (g *hostGraph) hasEdge(u, v int32) bool {
	ns := g.neighbors(u)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= v })
	return i < len(ns) && ns[i] == v
}

// bfsDepths returns every vertex's hop distance from s (-1 if unreached).
func (g *hostGraph) bfsDepths(s int32) []int32 {
	depth := make([]int32, len(g.off)-1)
	for i := range depth {
		depth[i] = -1
	}
	depth[s] = 0
	frontier := []int32{s}
	for len(frontier) > 0 {
		var next []int32
		for _, u := range frontier {
			for _, v := range g.neighbors(u) {
				if depth[v] < 0 {
					depth[v] = depth[u] + 1
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return depth
}

// checkBFS verifies a BFS parent array against reference depths: exactly
// the reachable vertices have parents, and each parent is a neighbour one
// level closer to the source, so the tree's depths are the true distances.
func (g *hostGraph) checkBFS(s int32, parent, depth []int32) error {
	if len(parent) != len(depth) {
		return fmt.Errorf("parent array has %d entries, want %d", len(parent), len(depth))
	}
	for v := range parent {
		p, d := parent[v], depth[v]
		switch {
		case d < 0:
			if p != -1 {
				return fmt.Errorf("vertex %d is unreachable but has parent %d", v, p)
			}
		case int32(v) == s:
			if p != s {
				return fmt.Errorf("source %d has parent %d", s, p)
			}
		case p < 0 || int(p) >= len(depth) || depth[p] != d-1 || !g.hasEdge(p, int32(v)):
			return fmt.Errorf("vertex %d at depth %d has parent %d, not a neighbour at depth %d", v, d, p, d-1)
		}
	}
	return nil
}

// components labels every vertex with the smallest vertex id of its
// connected component.
func (g *hostGraph) components() []int32 {
	n := len(g.off) - 1
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for u := int32(0); int(u) < n; u++ {
		for _, v := range g.neighbors(u) {
			a, b := find(u), find(v)
			if a < b {
				parent[b] = a
			} else if b < a {
				parent[a] = b
			}
		}
	}
	labels := make([]int32, n)
	for i := range labels {
		labels[i] = find(int32(i))
	}
	return labels
}

// soak-nomad: the resumable soak harness under the Nomad shadow-copy policy
// on the ycsb-paper memory sizes, checkpointed and restored twenty times.
type soak struct{ seed uint64 }

func (w *soak) draws() (int64, int64) { return zipfDraws(ycsb.PaperSequence, soakOps), records }

func (w *soak) config() bench.SoakConfig {
	names := make([]string, len(ycsb.PaperSequence))
	for i, wl := range ycsb.PaperSequence {
		names[i] = wl.Name
	}
	return bench.SoakConfig{
		Policy:    "nomad",
		Workloads: names,
		Records:   records,
		Ops:       soakOps,
		DRAMPages: dramFrames,
		PMPages:   pmFrames,
		Interval:  scanInterval,
		Seed:      w.seed,
	}
}

func (w *soak) rep(tr *Tracer, ck *checks) phase {
	start := time.Now()
	tr.Begin("setup")
	s, err := bench.NewSession(w.config())
	if err != nil {
		panic(err) // the configuration is fixed
	}
	tr.timeDaemons(s.M)
	tr.End()

	mt := startMeter(start, s.M)
	tr.Begin("measure")
	total := int64(len(ycsb.PaperSequence)) * soakOps
	every := total / (soakCheckpoints + 1)
	var bytesOut int
	for k := int64(1); k <= soakCheckpoints; k++ {
		tr.Region("soak.run", func() { s.RunUntil(k * every) })
		var before, after snapshot.AuditRecord
		var errBefore, errAfter error
		var f *snapshot.File
		var data []byte
		var next *bench.Session
		tr.Region("snapshot.fingerprint", func() { before, errBefore = s.Fingerprint() })
		tr.Region("snapshot.capture", func() { f, err = s.Capture() })
		if err != nil {
			ck.noErr(err, "capture")
			break
		}
		tr.Region("snapshot.encode", func() { data = f.Encode() })
		tr.Region("snapshot.decode", func() { f, err = snapshot.Decode(data) })
		if err == nil {
			tr.Region("snapshot.restore", func() { next, err = bench.RestoreSession(f) })
		}
		if err != nil {
			ck.noErr(err, "decode and restore")
			break
		}
		tr.Region("snapshot.fingerprint", func() { after, errAfter = next.Fingerprint() })
		ck.check(errBefore == nil && errAfter == nil && sameRecord(before, after),
			"checkpoint %d: fingerprint after RestoreSession differs (%v, %v)", k, errBefore, errAfter)
		bytesOut += len(data)
		stopDaemons(s.M)
		s = next
		tr.timeDaemons(s.M)
	}
	var report string
	tr.Region("soak.run", func() { report, err = s.Finish() })
	tr.End()
	ph := mt.stop(s.M)

	ck.noErr(err, "soak finish")
	ck.check(report != "" && s.Done(), "soak session did not complete")
	ck.noErr(s.M.CheckInvariants(), "soak-nomad invariants")
	kvstoreVals(&ph, s.Store.Stats)
	ph.vals["snapshot.bytes"] = float64(bytesOut) / soakCheckpoints
	return ph
}

func sameRecord(a, b snapshot.AuditRecord) bool {
	if a.Op != b.Op || a.VTime != b.VTime || len(a.Hashes) != len(b.Hashes) {
		return false
	}
	for k, v := range a.Hashes {
		if b.Hashes[k] != v {
			return false
		}
	}
	return true
}
