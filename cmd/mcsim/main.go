// mcsim runs one workload under one or more tiering policies on the
// simulated hybrid-memory machine and prints the outcome — a quick way to
// poke at a configuration without the full benchmark harness.
//
// Usage:
//
//	mcsim -policy multiclock -workload A -records 20000 -ops 500000
//	mcsim -policy static -gapbs PR -vertices 40000
//	mcsim -policy static,nimble,multiclock -workload D -parallel 0
//	mcsim -policy multiclock -workload A -chaos 42,0.01
//	mcsim -policy multiclock -workload A -metrics out.json -trace-events 128
//	mcsim -policy multiclock -workload A -metrics out.json -series 10ms -lifecycle 1
//	mcsim -policy multiclock -workload A -metrics out.json -trace-out trace.json
//	mcsim -policy multiclock -workload A -metrics out.json -slo 'p99(access_latency_dram_read_ns) < 400ns over 10ms'
//
// With a comma-separated policy list every policy gets its own machine;
// -parallel N fans them out across goroutines. Each machine is an
// independent single-threaded simulation, so output is printed in list
// order and is byte-identical at every parallelism level; per-policy
// wall-clock timing goes to stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"multiclock"
	"multiclock/internal/cliutil"
	"multiclock/internal/runner"
	"multiclock/internal/tracereplay"
)

// config carries the flag values one policy run needs.
type config struct {
	policy      string
	workload    string
	sequence    bool
	gapbs       string
	records     int64
	ops         int64
	vertices    int
	degree      int
	record      string
	replay      string
	replayFast  bool
	dram        int
	pm          int
	tiers       string
	scan        multiclock.Duration
	seed        uint64
	chaos       multiclock.FaultConfig
	metrics     bool
	traceEvents int
	series      multiclock.Duration
	lifecycle   uint64
	slo         string
	trace       bool
	label       string
}

func main() {
	pol := flag.String("policy", "multiclock", "comma-separated list of "+policyList())
	workload := flag.String("workload", "A", "YCSB workload (A-F, W)")
	sequence := flag.Bool("sequence", false, "run the paper's full YCSB sequence (Load,A,B,C,F,W,D)")
	gapbs := flag.String("gapbs", "", "run a GAPBS kernel instead (BFS, SSSP, PR, CC, BC, TC)")
	records := flag.Int64("records", 20000, "YCSB record count")
	ops := flag.Int64("ops", 500000, "YCSB operations")
	vertices := flag.Int("vertices", 40000, "graph vertices")
	degree := flag.Int("degree", 8, "graph average degree")
	record := flag.String("record", "", "write the access trace to this file (single policy only)")
	replay := flag.String("replay", "", "replay a recorded trace instead of a workload")
	replayFast := flag.Bool("replay-fast", false, "replay back-to-back instead of original pacing")
	dram := flag.Int("dram", 1024, "DRAM pages")
	pm := flag.Int("pm", 8192, "PM pages")
	tiers := flag.String("tiers", "", "explicit tier hierarchy as name:frames pairs, fastest first (e.g. dram:1024,cxl:2048,pm:8192,ssd:*); overrides -dram/-pm")
	interval := flag.Duration("interval", 0, "scan interval (virtual; default 100ms)")
	parallel := flag.Int("parallel", 1, "max policies simulated at once (0 = GOMAXPROCS)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	chaosSpec := flag.String("chaos", "", "deterministic fault injection as seed,rate (e.g. 42,0.01); empty disables")
	metricsOut := flag.String("metrics", "", "write a deterministic metrics JSON export to this file")
	traceEvents := flag.Int("trace-events", 0, "structured trace ring capacity in the metrics export (0 = no event trace)")
	series := flag.Duration("series", 0, "sample a windowed occupancy time series on this virtual period into the metrics export (0 = off)")
	lifecycleMod := flag.Uint64("lifecycle", 0, "trace per-page lifecycle spans with this sampling modulus (1 = every page, 0 = off) into the metrics export")
	httpAddr := flag.String("http", "", "serve expvar/pprof on this address (e.g. localhost:6060) for wall-clock profiling of long runs")
	var tf cliutil.TraceFlags
	tf.Register(flag.CommandLine)
	var snap cliutil.SnapshotFlags
	snap.Register(flag.CommandLine)
	flag.Parse()

	chaos, err := multiclock.ParseFaultSpec(*chaosSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcsim: %v\n", err)
		os.Exit(2)
	}
	if *tiers != "" {
		if _, err := cliutil.ParseTierSpec(*tiers); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(cliutil.ExitUsage)
		}
	}
	if err := cliutil.ValidateExportFlags(*series, *lifecycleMod, *metricsOut, tf.SLO, tf.TraceOut); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(cliutil.ExitUsage)
	}
	if tf.SLO != "" {
		if _, err := multiclock.ParseSLOSpec(tf.SLO); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(cliutil.ExitUsage)
		}
	}
	if err := snap.Validate(*series, *lifecycleMod, tf.SLO, tf.TraceOut); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(cliutil.ExitUsage)
	}
	ring := *traceEvents
	if tf.TraceOut != "" && ring == 0 {
		// A Perfetto export without the structured event ring would carry no
		// migrations, daemon passes or page faults; default it on.
		ring = cliutil.DefaultTraceRing
	}

	scan := multiclock.Duration(100 * 1e6)
	if *interval > 0 {
		scan = multiclock.Duration(interval.Nanoseconds())
	}
	policies := make([]string, 0, 4)
	for _, p := range strings.Split(*pol, ",") {
		if p = strings.TrimSpace(p); p == "" {
			continue
		}
		parsed, err := multiclock.ParsePolicy(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcsim: %v\n", err)
			os.Exit(2)
		}
		policies = append(policies, string(parsed))
	}
	if len(policies) == 0 {
		fmt.Fprintln(os.Stderr, "mcsim: -policy needs at least one policy name")
		os.Exit(2)
	}
	if *record != "" && len(policies) > 1 {
		fmt.Fprintln(os.Stderr, "mcsim: -record needs a single policy (the trace is one machine's access stream)")
		os.Exit(2)
	}
	if snap.Active() || snap.InvariantsEvery > 0 {
		// Checkpointable runs (and periodic invariant sweeps) are one machine
		// stepped op by op; the trace and graph paths have no
		// quiescent-boundary driver.
		if len(policies) > 1 {
			fmt.Fprintln(os.Stderr, "mcsim: checkpointing (-snapshot/-restore/-audit) needs a single policy")
			os.Exit(cliutil.ExitUsage)
		}
		if *gapbs != "" || *record != "" || *replay != "" {
			fmt.Fprintln(os.Stderr, "mcsim: checkpointing supports YCSB workloads only (no -gapbs/-record/-replay)")
			os.Exit(cliutil.ExitUsage)
		}
		if tf.SLO != "" || tf.TraceOut != "" {
			// snap.Validate catches the checkpointing combinations; this
			// covers the -invariants-every-only stepping mode.
			fmt.Fprintln(os.Stderr, "mcsim: -slo/-trace-out are not supported in checkpoint/invariant-stepping mode")
			os.Exit(cliutil.ExitUsage)
		}
		cfg := config{
			policy: policies[0], workload: *workload, sequence: *sequence,
			records: *records, ops: *ops, dram: *dram, pm: *pm, tiers: *tiers,
			scan: scan, seed: *seed, chaos: chaos,
			metrics: *metricsOut != "", traceEvents: *traceEvents,
		}
		os.Exit(runSnapshotMode(cfg, snap, *metricsOut))
	}

	workers := *parallel
	if workers <= 0 {
		workers = -1 // GOMAXPROCS, resolved by the runner
	}
	// Each policy's metrics snapshot lands in its own slot, so the export
	// is identical at every -parallel setting. Labels disambiguate repeated
	// policy names with the list position.
	seen := map[string]int{}
	metricsRuns := make([]*multiclock.MetricsRun, len(policies))
	tasks := make([]runner.Task[string], 0, len(policies))
	for i, p := range policies {
		label := p
		if n := seen[p]; n > 0 {
			label = fmt.Sprintf("%s#%d", p, n)
		}
		seen[p]++
		cfg := config{
			policy: p, workload: *workload, sequence: *sequence, gapbs: *gapbs,
			records: *records, ops: *ops, vertices: *vertices, degree: *degree,
			record: *record, replay: *replay, replayFast: *replayFast,
			dram: *dram, pm: *pm, tiers: *tiers, scan: scan, seed: *seed, chaos: chaos,
			metrics: *metricsOut != "", traceEvents: ring,
			series: multiclock.Duration(series.Nanoseconds()), lifecycle: *lifecycleMod,
			slo: tf.SLO, trace: tf.TraceOut != "",
			label: label,
		}
		slot := &metricsRuns[i]
		tasks = append(tasks, runner.Task[string]{Name: p, Fn: func() (string, error) {
			var b strings.Builder
			run, err := runOne(&b, cfg)
			*slot = run
			return b.String(), err
		}})
	}

	var progress io.Writer
	if len(policies) > 1 {
		progress = os.Stderr
	}
	stopDebug := func() {}
	if *httpAddr != "" {
		stopDebug = cliutil.ServeDebug("mcsim", *httpAddr)
	}
	failed := 0
	runner.Stream(workers, progress, tasks, func(_ int, r runner.TaskResult[string]) {
		if len(tasks) > 1 {
			fmt.Printf("==== %s ====\n", r.Name)
		}
		os.Stdout.WriteString(r.Value)
		if r.Err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "mcsim: %s: %v\n", r.Name, r.Err)
		}
	})
	if *metricsOut != "" {
		runs := make([]multiclock.MetricsRun, 0, len(metricsRuns))
		for _, r := range metricsRuns {
			if r != nil {
				runs = append(runs, *r)
			}
		}
		data, err := multiclock.ExportMetricsJSON(runs...)
		if err == nil {
			err = os.WriteFile(*metricsOut, data, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcsim: writing metrics: %v\n", err)
			stopDebug()
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "metrics: %d run(s) written to %s\n", len(runs), *metricsOut)
		if tf.TraceOut != "" {
			trace := multiclock.ExportPerfettoJSON(runs...)
			if err := os.WriteFile(tf.TraceOut, trace, 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "mcsim: writing trace: %v\n", err)
				stopDebug()
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "trace: perfetto timeline written to %s\n", tf.TraceOut)
		}
	}
	stopDebug()
	if failed > 0 {
		os.Exit(1)
	}
}

// runOne builds one system, drives it per the config, writes the
// human-readable outcome to w, and returns the metrics snapshot when
// collection was requested.
func runOne(w io.Writer, cfg config) (*multiclock.MetricsRun, error) {
	syscfg := multiclock.Config{
		Policy:       multiclock.Policy(cfg.policy),
		DRAMPages:    cfg.dram,
		PMPages:      cfg.pm,
		ScanInterval: cfg.scan,
		Seed:         cfg.seed,
		Chaos:        cfg.chaos,
	}
	if cfg.tiers != "" {
		// Validated at flag-parse time; re-parse for the topology value.
		top, err := cliutil.ParseTierSpec(cfg.tiers)
		if err != nil {
			return nil, err
		}
		syscfg.Tiers = &top
	}
	sys := multiclock.NewSystem(syscfg)
	defer sys.Stop()

	var collector *multiclock.Metrics
	var sampler *multiclock.SeriesSampler
	var tracer *multiclock.LifecycleTracer
	var sloEng *multiclock.SLOEngine
	if cfg.metrics {
		collector = sys.EnableMetrics(cfg.traceEvents)
		if cfg.series > 0 {
			sampler = sys.EnableTimeSeries(cfg.series)
		}
		if cfg.lifecycle > 0 {
			tracer = sys.EnableLifecycle(multiclock.LifecycleConfig{SampleMod: cfg.lifecycle})
		}
		if cfg.slo != "" {
			var err error
			if sloEng, err = sys.EnableSLO(cfg.slo); err != nil {
				return nil, err
			}
		}
		if cfg.trace {
			sys.EnableTraceRecording()
		}
	}

	var recorder *tracereplay.Recorder
	if cfg.record != "" {
		f, err := os.Create(cfg.record)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		recorder, err = tracereplay.NewRecorder(f)
		if err != nil {
			return nil, err
		}
		sys.Attach(recorder)
	}

	switch {
	case cfg.replay != "":
		f, err := os.Open(cfg.replay)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		mode := tracereplay.Timed
		if cfg.replayFast {
			mode = tracereplay.Fast
		}
		res, err := tracereplay.Replay(sys.Machine(), f, mode)
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		fmt.Fprintf(w, "replayed %d accesses in %v (virtual)\n", res.Records, res.Elapsed)
	case cfg.gapbs != "":
		if err := runGAPBS(w, sys, cfg); err != nil {
			return nil, err
		}
	case cfg.sequence:
		runSequence(w, sys, cfg.records, cfg.ops)
	default:
		if err := runYCSB(w, sys, cfg); err != nil {
			return nil, err
		}
	}

	if recorder != nil {
		if err := recorder.Close(); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		fmt.Fprintf(w, "trace: %d accesses written to %s\n", recorder.Records(), cfg.record)
	}

	fmt.Fprintf(w, "\npolicy: %s\nvirtual time: %v\n", sys.PolicyName(), sys.Elapsed())
	fmt.Fprintln(w, sys.Counters())
	if fr := sys.FaultReport(); fr != "" {
		fmt.Fprintln(w, fr)
		if err := sys.CheckInvariants(); err != nil {
			return nil, fmt.Errorf("invariant check after chaos run: %w", err)
		}
	}
	if collector != nil {
		run := collector.Run(cfg.label)
		if sampler != nil {
			run.Series = sampler.Export()
		}
		if tracer != nil {
			run.Lifecycle = tracer.Export()
		}
		if sloEng != nil {
			run.SLO = sloEng.Export()
		}
		if cfg.trace {
			sys.AttachTraceSections(&run)
		}
		return &run, nil
	}
	return nil, nil
}

// runSequence executes the prescribed workload order (§V-B) and prints a
// per-workload summary.
func runSequence(w io.Writer, sys *multiclock.System, records, ops int64) {
	store := sys.NewKVStore(int(records))
	client := sys.NewYCSB(store, records)
	fmt.Fprintf(w, "loading %d records...\n", records)
	client.Load()
	fmt.Fprintf(w, "%-8s %14s %10s %10s %10s\n", "workload", "ops/s", "p50", "p95", "p99")
	for _, wl := range multiclock.PaperSequence {
		res := client.Run(wl, ops)
		fmt.Fprintf(w, "%-8s %14.0f %10v %10v %10v\n", wl.Name, res.Throughput, res.P50, res.P95, res.P99)
	}
}

func runYCSB(w io.Writer, sys *multiclock.System, cfg config) error {
	var wl multiclock.Workload
	switch cfg.workload {
	case "A":
		wl = multiclock.WorkloadA
	case "B":
		wl = multiclock.WorkloadB
	case "C":
		wl = multiclock.WorkloadC
	case "D":
		wl = multiclock.WorkloadD
	case "E":
		wl = multiclock.WorkloadE
	case "F":
		wl = multiclock.WorkloadF
	case "W":
		wl = multiclock.WorkloadW
	default:
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	store := sys.NewKVStore(int(cfg.records))
	client := sys.NewYCSB(store, cfg.records)
	fmt.Fprintf(w, "loading %d records...\n", cfg.records)
	client.Load()
	fmt.Fprintf(w, "running YCSB workload %s for %d ops...\n", cfg.workload, cfg.ops)
	res := client.Run(wl, cfg.ops)
	if res.Unsupported {
		fmt.Fprintln(w, "workload is non-operational on this back-end (memcached has no SCAN)")
		return nil
	}
	fmt.Fprintf(w, "throughput: %.0f ops/s (virtual)\n", res.Throughput)
	fmt.Fprintf(w, "latency: mean %v, p50 %v, p95 %v, p99 %v\n",
		res.MeanLatency, res.P50, res.P95, res.P99)
	return nil
}

func runGAPBS(w io.Writer, sys *multiclock.System, cfg config) error {
	g := sys.NewGraph(multiclock.GraphConfig{
		Vertices:  cfg.vertices,
		Degree:    cfg.degree,
		Kronecker: true,
		Seed:      cfg.seed,
	})
	fmt.Fprintf(w, "loaded %v; running %s...\n", g, cfg.gapbs)
	start := sys.Elapsed()
	switch cfg.gapbs {
	case "BFS":
		g.BFS(0)
	case "SSSP":
		g.SSSP(0, 64)
	case "PR":
		g.PageRank(5)
	case "CC":
		g.CC()
	case "BC":
		g.BC([]int32{0, 1, 2, 3})
	case "TC":
		fmt.Fprintf(w, "triangles: %d\n", g.TC())
	default:
		return fmt.Errorf("unknown kernel %q", cfg.gapbs)
	}
	fmt.Fprintf(w, "kernel time: %v (virtual)\n", sys.Elapsed()-start)
	return nil
}

// policyList renders every selectable policy name for the -policy usage.
func policyList() string {
	var names []string
	for _, p := range append(multiclock.Policies(), multiclock.ExtensionPolicies()...) {
		names = append(names, string(p))
	}
	return strings.Join(names, " | ")
}
