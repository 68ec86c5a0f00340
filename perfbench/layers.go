package main

import (
	"strings"
	"time"

	"multiclock/internal/sim"
	"multiclock/internal/ycsb"
)

// layerUnits lists every per-layer metric the traced run prints, in the
// order of README.md's table, with its unit. A metric of a layer the
// workload does not reach reads 0.
var layerUnits = []struct{ name, unit string }{
	{"ycsb.chooser_ns", "ns"},
	{"ycsb.step_p50_ns", "ns"},
	{"ycsb.step_p99_ns", "ns"},
	{"ycsb.load_s", "s"},
	{"ycsb.sim_op_p99_us", "us"},
	{"kvstore.get_hit_ratio", "ratio"},
	{"kvstore.evicted_for_space", "count"},
	{"graph.generate_edges_s", "s"},
	{"graph.build_s", "s"},
	{"graph.pagerank_s", "s"},
	{"graph.bfs_s", "s"},
	{"graph.cc_s", "s"},
	{"graph.ns_per_access", "ns"},
	{"machine.self_ns_per_access", "ns"},
	{"machine.cache_filtered_ratio", "ratio"},
	{"machine.minor_faults", "count"},
	{"machine.hint_faults", "count"},
	{"mem.dram_hit_ratio", "ratio"},
	{"mem.promotions", "count"},
	{"mem.demotions", "count"},
	{"mem.migrate_fails", "count"},
	{"mem.swap_outs", "count"},
	{"mem.migration_busy_ms", "ms"},
	{"mem.shadow_hits", "count"},
	{"daemon.passes", "count"},
	{"daemon.busy_s", "s"},
	{"daemon.pass_p50_us", "us"},
	{"daemon.pass_p99_us", "us"},
	{"daemon.ns_per_scanned_page", "ns"},
	{"lru.pages_scanned", "count"},
	{"core.promote_yield", "ratio"},
	{"snapshot.capture_ms_p50", "ms"},
	{"snapshot.encode_ms_p50", "ms"},
	{"snapshot.decode_ms_p50", "ms"},
	{"snapshot.restore_ms_p50", "ms"},
	{"snapshot.bytes", "B"},
	{"metrics.export_s", "s"},
	{"metrics.export_bytes", "B"},
	{"traceexport.build_s", "s"},
	{"traceexport.bytes", "B"},
	{"lifecycle.export_s", "s"},
	{"timeseries.export_s", "s"},
	{"slo.export_s", "s"},
	{"telemetry.onpath_ns_per_access", "ns"},
	{"go.gc_cycles", "count"},
	{"go.gc_cpu_frac", "ratio"},
	{"go.heap_alloc_mb", "MB"},
	{"trace.overhead_frac", "ratio"},
	{"check_fail_frac", "ratio"},
}

// exportSpans are the telemetry consumers' export calls.
var exportSpans = []string{"metrics.export", "timeseries.export", "lifecycle.export", "slo.export", "traceexport.build"}

// expectedDominant names the layer each workload was chosen to stress: the
// one expected to hold the largest share of the traced run's self time.
var expectedDominant = map[string]string{
	"ycsb-paper":    "ycsb.chooser",
	"gapbs-kron":    "graph.setup",
	"ycsb-observed": "telemetry.export",
	"soak-nomad":    "snapshot",
}

// layerMetrics derives the per-layer metrics of a traced run. Timings come
// from the traced repetitions' spans (per repetition: totals divided by
// their count); counters come from the repetitions' machines, which every
// repetition reproduces exactly; host-cost figures that tracing would skew
// (Go runtime, telemetry on-path cost) come from the plain repetitions.
func layerMetrics(opt options, w workload, tr *Tracer, traced, plain, twins []phase, ck *checks, out map[string]metric) error {
	v := map[string]float64{}
	nT := float64(len(traced))
	perRep := func(ns int64) float64 { return float64(ns) / nT / 1e9 }
	p := traced[0]
	acc := float64(p.accesses)
	medPlain := func(f func(phase) float64) float64 { return medianOf(plain, f) }

	// ycsb
	draws, recs := w.draws()
	var chooserNS float64
	if draws > 0 {
		chooserNS = timeChooser(opt.seed, draws, recs)
		v["ycsb.chooser_ns"] = chooserNS
	}
	step := tr.Durations("ycsb.step")
	v["ycsb.step_p50_ns"] = step.Quantile(0.5)
	_, v["ycsb.step_p99_ns"] = tail(step, 99)
	v["ycsb.load_s"] = perRep(tr.Total("ycsb.load"))
	v["ycsb.sim_op_p99_us"] = p.vals["ycsb.sim_op_p99_us"]

	// kvstore, graph
	v["kvstore.get_hit_ratio"] = p.vals["kvstore.get_hit_ratio"]
	v["kvstore.evicted_for_space"] = p.vals["kvstore.evicted_for_space"]
	kernels := int64(0)
	for _, k := range []string{"generate_edges", "build", "pagerank", "bfs", "cc"} {
		v["graph."+k+"_s"] = perRep(tr.Total("graph." + k))
		if k != "generate_edges" && k != "build" {
			kernels += tr.Total("graph." + k)
		}
	}
	v["graph.ns_per_access"] = ratio(float64(kernels)/nT, acc)

	// machine: the measured phase minus every timed child call that is
	// not the access engine, per access.
	daemonNS := tr.TotalPrefix("daemon.")
	var exportNS int64
	for _, name := range exportSpans {
		exportNS += tr.Total(name)
	}
	other := float64(daemonNS+tr.TotalPrefix("snapshot.")+exportNS) + chooserNS*float64(draws)*nT
	v["machine.self_ns_per_access"] = ratio((float64(tr.Total("measure"))-other)/nT, acc)
	c := p.counts
	v["machine.cache_filtered_ratio"] = ratio(float64(c.cacheFiltered), acc)
	v["machine.minor_faults"] = float64(c.minorFaults)
	v["machine.hint_faults"] = float64(c.hintFaults)

	// mem
	v["mem.dram_hit_ratio"] = ratio(float64(c.fastAccesses), float64(c.allAccesses))
	v["mem.promotions"] = float64(c.promotions)
	v["mem.demotions"] = float64(c.demotions)
	v["mem.migrate_fails"] = float64(c.migrateFails)
	v["mem.swap_outs"] = float64(c.swapOuts)
	v["mem.migration_busy_ms"] = float64(c.migrationBusyNS) / 1e6
	v["mem.shadow_hits"] = float64(c.shadowHits)

	// daemons, over the whole repetition (they also run during set-up)
	passes := &Hist{}
	for name, h := range tr.hists {
		if strings.HasPrefix(name, "daemon.") {
			passes.Merge(h)
		}
	}
	rc := p.repCounts
	v["daemon.passes"] = float64(passes.N()) / nT
	v["daemon.busy_s"] = perRep(daemonNS)
	v["daemon.pass_p50_us"] = passes.Quantile(0.5) / 1e3
	_, p99 := tail(passes, 99)
	v["daemon.pass_p99_us"] = p99 / 1e3
	v["daemon.ns_per_scanned_page"] = ratio(float64(daemonNS)/nT, float64(rc.pagesScanned))
	v["lru.pages_scanned"] = float64(rc.pagesScanned)
	v["core.promote_yield"] = ratio(float64(rc.promotions), float64(rc.pagesScanned))

	// snapshot
	for _, s := range []string{"capture", "encode", "decode", "restore"} {
		v["snapshot."+s+"_ms_p50"] = tr.Durations("snapshot."+s).Quantile(0.5) / 1e6
	}
	v["snapshot.bytes"] = p.vals["snapshot.bytes"]

	// telemetry
	v["metrics.export_s"] = perRep(tr.Total("metrics.export"))
	v["metrics.export_bytes"] = p.vals["metrics.export_bytes"]
	v["traceexport.build_s"] = perRep(tr.Total("traceexport.build"))
	v["traceexport.bytes"] = p.vals["traceexport.bytes"]
	v["lifecycle.export_s"] = perRep(tr.Total("lifecycle.export"))
	v["timeseries.export_s"] = perRep(tr.Total("timeseries.export"))
	v["slo.export_s"] = perRep(tr.Total("slo.export"))
	if len(twins) > 0 {
		on := medPlain(func(p phase) float64 { return p.wallS - p.vals["export_s"] })
		off := medianOf(twins, func(p phase) float64 { return p.wallS })
		v["telemetry.onpath_ns_per_access"] = ratio((on-off)*1e9, acc)
	}

	// Go runtime
	v["go.gc_cycles"] = medPlain(func(p phase) float64 { return p.gcCycles })
	v["go.gc_cpu_frac"] = medPlain(func(p phase) float64 { return p.gcCPUFrac })
	v["go.heap_alloc_mb"] = medPlain(func(p phase) float64 { return p.heapMB })

	wall := func(p phase) float64 { return p.wallS }
	v["trace.overhead_frac"] = ratio(medianOf(traced, wall), medPlain(wall)) - 1

	spansFile, err := writeSpans(opt, tr)
	if err != nil {
		return err
	}
	shares := layerShares(tr, chooserNS*float64(draws)*nT)
	dominant := largest(shares)
	printLine("trace", map[string]any{
		"traced_reps": len(traced),
		"plain_reps":  len(plain),
		"spans":       len(tr.spans),
		"spans_file":  spansFile,
		"tails": map[string]any{
			"ycsb.step":   tailInfo(step),
			"daemon.pass": tailInfo(passes),
		},
		"self_ns":           tr.SelfTimes(),
		"layer_shares":      shares,
		"dominant":          dominant,
		"expected_dominant": expectedDominant[opt.workload],
		"as_expected":       dominant == expectedDominant[opt.workload],
		"daemon_share":      shares["daemon"],
	})

	v["check_fail_frac"] = ratio(float64(ck.failed), float64(ck.attempted))
	for _, lu := range layerUnits {
		out[lu.name] = metric{v[lu.name], lu.unit}
	}
	return nil
}

func medianOf(ps []phase, f func(phase) float64) float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	return median(xs)
}

func tailInfo(h *Hist) map[string]any {
	p, v := tail(h, 99)
	return map[string]any{"n": h.N(), "p50_ns": h.Quantile(0.5), "tail_percentile": p, "tail_ns": v}
}

// timeChooser times n draws of ycsb.Scrambled over records keys, the
// generator every zipfian YCSB workload draws its keys from, and returns
// nanoseconds per draw.
func timeChooser(seed uint64, n, records int64) float64 {
	z := ycsb.NewScrambled(records)
	rng := sim.NewRNG(seed)
	start := time.Now()
	for i := int64(0); i < n; i++ {
		z.Next(rng)
	}
	return ratio(float64(time.Since(start).Nanoseconds()), float64(n))
}

// layerOf groups a span name into the layer the dominance report ranks.
func layerOf(name string) string {
	switch {
	case name == "ycsb.step" || name == "soak.run" || strings.HasPrefix(name, "ycsb.run."):
		// Operations minus the key chooser: the kvstore and the access
		// engine it drives. A workload span's self time is its unsampled
		// steps.
		return "kvstore+machine"
	case name == "graph.generate_edges" || name == "graph.build":
		return "graph.setup"
	case strings.HasPrefix(name, "daemon."):
		return "daemon"
	case strings.HasPrefix(name, "snapshot."):
		return "snapshot"
	}
	for _, e := range exportSpans {
		if name == e {
			return "telemetry.export"
		}
	}
	return name
}

// layerShares returns each layer's share of the traced repetitions' total
// self time. chooserNS, the estimated time in the key chooser, is moved from
// the layer that ran the operations to its own "ycsb.chooser" layer.
func layerShares(tr *Tracer, chooserNS float64) map[string]float64 {
	ns := map[string]float64{}
	var total float64
	for _, e := range tr.SelfTimes() {
		ns[layerOf(e.Name)] += float64(e.NS)
		total += float64(e.NS)
	}
	if chooserNS > 0 {
		moved := min(chooserNS, ns["kvstore+machine"])
		ns["kvstore+machine"] -= moved
		ns["ycsb.chooser"] = moved
	}
	out := map[string]float64{}
	for k, x := range ns {
		out[k] = ratio(x, total)
	}
	return out
}

// largest returns the key with the largest value (ties: the first name).
func largest(m map[string]float64) string {
	best := ""
	for k, v := range m {
		if best == "" || v > m[best] || (v == m[best] && k < best) {
			best = k
		}
	}
	return best
}
