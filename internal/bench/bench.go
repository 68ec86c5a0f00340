// Package bench is the evaluation harness: one runner per table and figure
// of the paper (§II and §V), each regenerating the corresponding rows or
// series on the simulated machine. cmd/mcbench and the repository's
// testing.B benchmarks both drive this package.
//
// Time scaling: the paper's runs last minutes of wall-clock per workload
// with a 1-second kpromoted interval — hundreds of scan periods per
// workload. Simulated runs compress that: a few virtual seconds carry the
// whole run, so the daemon interval playing the role of the paper's 1 s is
// 10 ms here (the interval the Fig. 10 sweep confirms as the operating
// optimum at this compression). The derived telemetry window stays at 20
// intervals (≙ the paper's 20 s). Full mode differs from quick mode in op
// counts, footprints and graph sizes — ~10× more scan periods per
// workload — not in the interval itself. The shapes under comparison (who
// wins, by what factor, where crossovers sit) depend on periods elapsed,
// not absolute seconds; EXPERIMENTS.md records the mapping.
package bench

import (
	"fmt"
	"sort"
	"strings"

	"multiclock/internal/cliutil"
	"multiclock/internal/core"
	"multiclock/internal/fault"
	"multiclock/internal/lifecycle"
	"multiclock/internal/machine"
	"multiclock/internal/metrics"
	"multiclock/internal/policy"
	"multiclock/internal/sim"
	"multiclock/internal/slo"
	"multiclock/internal/timeseries"
)

// DefaultScanInterval is the promotion-daemon period when none is given:
// the paper's kpromoted runs every 1 s (§V-E). This is the single home of
// that default — the facade and every experiment defer to it.
const DefaultScanInterval = 1 * sim.Second

// Options selects the run scale.
type Options struct {
	// Quick shrinks op counts and daemon intervals ~10× for CI-speed
	// runs; Full reproduces the paper-scale interval of 1 s.
	Quick bool
	Seed  uint64
	// Parallel is the maximum number of simulated machines in flight at
	// once within an experiment. 0 and 1 both mean sequential; negative
	// means GOMAXPROCS. Each sub-run (system×workload cell) is an
	// independent single-threaded machine, so output is byte-identical
	// at every setting: cells are scheduled across goroutines but their
	// results reassemble in presentation order.
	Parallel int
	// Chaos configures deterministic fault injection on every machine the
	// experiment builds. The zero value disables injection entirely and
	// reproduces fault-free output bit for bit.
	Chaos fault.Config
	// Metrics, when non-nil, collects per-machine telemetry from the
	// experiments that support it (the YCSB family: figs. 5 and 7–10) into
	// labeled registries for deterministic export. Nil collects nothing
	// and leaves every simulation untouched.
	Metrics *metrics.Pool
	// Series, when positive, additionally samples every instrumented
	// machine's per-node occupancy and windowed vmstat deltas on this
	// virtual-time period; the series rides the run's metrics export.
	// Requires Metrics.
	Series sim.Duration
	// Lifecycle, when positive, additionally traces per-page Fig. 4 spans
	// on every instrumented machine with this deterministic sampling
	// modulus (1 traces every page); the timelines ride the run's metrics
	// export. Requires Metrics.
	Lifecycle uint64
	// Tiers, when non-empty, replaces the default two-tier machine with the
	// hierarchy this -tiers spec describes (cliutil.ParseTierSpec syntax,
	// e.g. "dram:1024,cxl:2048,pm:8192") on every machine the experiments
	// build. Callers validate the spec up front; machineFor panics on a bad
	// one.
	Tiers string
	// SLO, when non-empty, evaluates the declarative latency objectives it
	// describes (slo.Parse syntax) on every instrumented machine's virtual
	// clock; the results ride the run's metrics export. Callers validate the
	// spec up front; instrument panics on a bad one. Requires Metrics.
	SLO string
	// Trace, when set, additionally records what only the Perfetto trace
	// export consumes: the machine's node→tier topology and the injected
	// fault-injection window log. Both ride the run's metrics export as
	// extra sections. Requires Metrics.
	Trace bool
}

// workers resolves Parallel for runner.Map.
func (o Options) workers() int {
	if o.Parallel == 0 {
		return 1
	}
	return o.Parallel
}

// DefaultOptions returns full-scale settings.
func DefaultOptions() Options { return Options{Seed: 1} }

// SystemNames lists the tiered systems compared in Figs. 5 and 6, in
// presentation order.
var SystemNames = []string{"static", "multiclock", "nimble", "at-cpm", "at-opm"}

// MemModeNames lists the Fig. 7 comparison set.
var MemModeNames = []string{"static", "multiclock", "memory-mode"}

// policyEntry is one selectable tiering policy.
type policyEntry struct {
	name string
	// paper marks the systems the paper evaluates (§V); the rest are the
	// extensions this reproduction adds.
	paper bool
	build func(interval sim.Duration) machine.Policy
}

// policyTable is the one registry of selectable policies, the paper's
// systems first. NewPolicy, the facade's Policies/ExtensionPolicies/
// ParsePolicy and mcsim's -policy usage all read it.
var policyTable = []policyEntry{
	{"static", true, func(sim.Duration) machine.Policy { return policy.NewStatic() }},
	{"multiclock", true, func(iv sim.Duration) machine.Policy { return multiClock(iv, false) }},
	{"nimble", true, func(iv sim.Duration) machine.Policy { return nimble(iv, false) }},
	{"at-cpm", true, func(iv sim.Duration) machine.Policy { return autoTiering(iv, policy.CPM) }},
	{"at-opm", true, func(iv sim.Duration) machine.Policy { return autoTiering(iv, policy.OPM) }},
	{"memory-mode", true, func(sim.Duration) machine.Policy { return policy.NewMemoryMode() }},
	{"thermostat", false, func(iv sim.Duration) machine.Policy {
		cfg := policy.DefaultThermostatConfig()
		cfg.ScanInterval = iv
		return policy.NewThermostat(cfg)
	}},
	{"amp-lfu", false, func(iv sim.Duration) machine.Policy { return amp(iv, policy.AMPLFU) }},
	{"amp-lru", false, func(iv sim.Duration) machine.Policy { return amp(iv, policy.AMPLRU) }},
	{"amp-random", false, func(iv sim.Duration) machine.Policy { return amp(iv, policy.AMPRandom) }},
	{"nomad", false, func(iv sim.Duration) machine.Policy {
		cfg := policy.DefaultNomadConfig()
		cfg.ScanInterval = iv
		return policy.NewNomad(cfg)
	}},
	{"s3fifo", false, func(iv sim.Duration) machine.Policy {
		cfg := policy.DefaultS3FIFOConfig()
		cfg.ScanInterval = iv
		return policy.NewS3FIFO(cfg)
	}},
	{"multiclock-gated", false, func(iv sim.Duration) machine.Policy { return multiClock(iv, true) }},
	{"nimble-gated", false, func(iv sim.Duration) machine.Policy { return nimble(iv, true) }},
}

func multiClock(interval sim.Duration, gated bool) machine.Policy {
	cfg := core.DefaultConfig()
	cfg.ScanInterval = interval
	if gated {
		cfg.Gate = policy.NewBandwidthGate(policy.DefaultBandwidthGateConfig())
	}
	return core.New(cfg)
}

func nimble(interval sim.Duration, gated bool) machine.Policy {
	cfg := policy.DefaultNimbleConfig()
	cfg.ScanInterval = interval
	if gated {
		cfg.Gate = policy.NewBandwidthGate(policy.DefaultBandwidthGateConfig())
	}
	return policy.NewNimble(cfg)
}

func autoTiering(interval sim.Duration, mode policy.ATMode) machine.Policy {
	cfg := policy.DefaultATConfig(mode)
	cfg.ScanInterval = interval
	return policy.NewAutoTiering(cfg)
}

func amp(interval sim.Duration, sel policy.AMPSelector) machine.Policy {
	cfg := policy.DefaultAMPConfig(sel)
	cfg.ScanInterval = interval
	return policy.NewAMP(cfg)
}

// PolicyNames lists the selectable policy names in registry order: the
// paper's systems when paper is true, the extensions otherwise.
func PolicyNames(paper bool) []string {
	var out []string
	for _, e := range policyTable {
		if e.paper == paper {
			out = append(out, e.name)
		}
	}
	return out
}

// NewPolicy constructs a policy by name with the given daemon interval;
// a non-positive interval means DefaultScanInterval.
func NewPolicy(name string, interval sim.Duration) (machine.Policy, error) {
	if interval <= 0 {
		interval = DefaultScanInterval
	}
	for _, e := range policyTable {
		if e.name == name {
			return e.build(interval), nil
		}
	}
	return nil, fmt.Errorf("bench: unknown system %q", name)
}

// mustPolicy is NewPolicy for the experiments' own fixed policy names.
func mustPolicy(name string, interval sim.Duration) machine.Policy {
	p, err := NewPolicy(name, interval)
	if err != nil {
		panic(err)
	}
	return p
}

// scale bundles the size parameters one Options implies.
type scale struct {
	Interval       sim.Duration
	DRAMPages      int
	PMPages        int
	Records        int64
	OpsPerWorkload int64
	// Window is the telemetry window (the paper's 20 s = 20 intervals).
	Window sim.Duration
	// Graph scale for the GAPBS experiments (their memory is sized
	// separately so the CSR exceeds DRAM like the paper's graphs do).
	GraphVertices  int
	GraphDegree    int
	GraphDRAMPages int
	GraphPMPages   int
	PRIters        int
	BFSTrials      int
	BCSources      int
	// Chaos passes the Options fault-injection config through to every
	// machine the experiment builds.
	Chaos fault.Config
	// Metrics and MetricsPrefix thread the Options telemetry pool through
	// to each cell; collectors are claimed under Prefix+cell labels. Both
	// must be set for a cell to instrument itself.
	Metrics       *metrics.Pool
	MetricsPrefix string
	// Series, Lifecycle, SLO and Trace thread the observability knobs
	// through to each instrumented cell (see Options).
	Series    sim.Duration
	Lifecycle uint64
	SLO       string
	Trace     bool
	// Tiers is the Options tier spec, applied by machineFor.
	Tiers string
}

// instrument claims a collector labeled sc.MetricsPrefix+label, binds it to
// m and installs it as both observer and telemetry sink. No-op (and no
// allocation) when the experiment carries no pool or no prefix.
func (sc scale) instrument(m *machine.Machine, label string) {
	if sc.Metrics == nil || sc.MetricsPrefix == "" {
		return
	}
	full := sc.MetricsPrefix + label
	c := sc.Metrics.Collector(full).Bind(m)
	m.SetMetrics(c)
	m.Attach(c)
	// The observability layers export at pool-snapshot time (after the
	// cell's machine has quiesced), so they attach as run decorators.
	if sc.Series > 0 {
		sp := timeseries.New(m, sc.Series, 0)
		sc.Metrics.Decorate(full, func(r *metrics.RunExport) { r.Series = sp.Export() })
	}
	if sc.Lifecycle > 0 {
		tr := lifecycle.New(lifecycle.Config{SampleMod: sc.Lifecycle}).Bind(m)
		sc.Metrics.Decorate(full, func(r *metrics.RunExport) { r.Lifecycle = tr.Export() })
	}
	if sc.SLO != "" {
		sp, err := slo.Parse(sc.SLO)
		if err != nil {
			panic("bench: " + err.Error())
		}
		eng := slo.New(m.Clock, c.Registry(), sp, 0)
		sc.Metrics.Decorate(full, func(r *metrics.RunExport) { r.SLO = eng.Export() })
	}
	if sc.Trace {
		// Tier labels and injected-fault windows only matter to the trace
		// renderer, so they record (and change export bytes) only on request.
		m.Faults.EnableWindowLog(0)
		sc.Metrics.Decorate(full, func(r *metrics.RunExport) {
			r.Topology = metrics.TopologyOf(m)
			r.Faults = metrics.FaultsOf(m)
		})
	}
}

func (o Options) scale() scale {
	sc := o.sizes()
	sc.Chaos = o.Chaos
	sc.Metrics = o.Metrics
	sc.Series = o.Series
	sc.Lifecycle = o.Lifecycle
	sc.SLO = o.SLO
	sc.Trace = o.Trace
	sc.Tiers = o.Tiers
	return sc
}

func (o Options) sizes() scale {
	if o.Quick {
		return scale{
			Interval:       10 * sim.Millisecond,
			DRAMPages:      1024,
			PMPages:        8192,
			Records:        16_000,
			OpsPerWorkload: 120_000,
			Window:         200 * sim.Millisecond,
			GraphVertices:  48_000,
			GraphDegree:    6,
			GraphDRAMPages: 512,
			GraphPMPages:   8192,
			PRIters:        3,
			BFSTrials:      2,
			BCSources:      6,
		}
	}
	return scale{
		Interval:  10 * sim.Millisecond,
		DRAMPages: 1024,
		// PM holds the initial footprint plus workload D's inserted
		// records (~15k pages at full scale) without touching swap.
		PMPages:        24_576,
		Records:        24_000,
		OpsPerWorkload: 1_200_000,
		Window:         200 * sim.Millisecond,
		GraphVertices:  96_000,
		GraphDegree:    8,
		GraphDRAMPages: 1024,
		GraphPMPages:   16_384,
		PRIters:        5,
		BFSTrials:      3,
		BCSources:      8,
	}
}

// machineFor builds the standard two-node experiment machine, or the
// explicit hierarchy when the scale carries a tier spec.
func machineFor(sc scale, seed uint64, p machine.Policy) *machine.Machine {
	cfg := machine.DefaultConfig()
	cfg.Mem.DRAMNodes = []int{sc.DRAMPages}
	cfg.Mem.PMNodes = []int{sc.PMPages}
	if sc.Tiers != "" {
		top, err := cliutil.ParseTierSpec(sc.Tiers)
		if err != nil {
			panic("bench: " + err.Error())
		}
		cfg.Mem.Topology = &top
	}
	cfg.Seed = seed
	cfg.OpCost = 1 * sim.Microsecond
	cfg.Faults = sc.Chaos
	return machine.New(cfg, p)
}

// stopDaemons halts a policy's daemons so abandoned machines cost nothing.
func stopDaemons(p machine.Policy) {
	if st, ok := p.(machine.Stopper); ok {
		st.Stop()
	}
}

// Experiments maps experiment ids to their runners, for the CLI.
var Experiments = map[string]func(Options) string{
	"fig1":                 Fig1,
	"fig2":                 Fig2,
	"table1":               func(Options) string { return Table1() },
	"fig5":                 Fig5,
	"fig6":                 Fig6,
	"fig7":                 Fig7,
	"fig8":                 Fig8,
	"fig9":                 Fig9,
	"fig10":                Fig10,
	"ablation-promote":     AblationPromoteList,
	"ablation-batch":       AblationScanBatch,
	"ablation-ratio":       AblationDRAMRatio,
	"ablation-write":       AblationWriteAware,
	"ablation-amp":         AblationAMP,
	"ablation-granularity": AblationGranularity,
	"ablation-thp":         AblationTHP,
	"ablation-multiproc":   AblationMultiProc,
	"bakeoff":              Bakeoff,
}

// Names returns the experiment ids in sorted order.
func Names() []string {
	out := make([]string, 0, len(Experiments))
	for k := range Experiments {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by id.
func Run(name string, opt Options) (string, error) {
	fn, ok := Experiments[name]
	if !ok {
		return "", fmt.Errorf("bench: unknown experiment %q (have %s)", name, strings.Join(Names(), ", "))
	}
	return fn(opt), nil
}

// Table1 prints the qualitative technique-comparison matrix (paper
// Table I); the properties of our implementations, asserted by the test
// suite, are restated here.
func Table1() string {
	var b strings.Builder
	b.WriteString("Table I — comparison of memory tiering techniques (as implemented here)\n")
	b.WriteString(`
technique   tracking            selection(promo)    demotion   numa  space-ovh  pages
----------  ------------------  ------------------  ---------  ----  ---------  -----
static      n/a                 n/a                 n/a        yes   none       all
nimble      reference bit       recency             recency    no    none       all
at-cpm      software hint fault fault recency       none       yes   none       all
at-opm      software hint fault fault recency       n-bit hist yes   n bits/pg  all
amp-*       full profiling      lru/lfu/random      same       no    cnt/page   all
thermostat  software hint fault region fault rate   cold regio yes   per-region huge
memory-mode hw cache tags       n/a (dram hidden)   n/a        yes   tags       all
multiclock  reference bit       recency+frequency   recency    yes   none       all
`)
	b.WriteString("\nmulticlock key insight: low-overhead recency+frequency via the promote list.\n")
	return b.String()
}

// tierCounters summarizes where accesses landed (used in several reports).
func tierSummary(m *machine.Machine) string {
	c := &m.Mem.Counters
	return fmt.Sprintf("DRAM-hit=%.1f%% promos=%d demos=%d hintfaults=%d swaps=%d",
		100*c.DRAMHitRatio(), c.Promotions, c.Demotions, c.HintFaults, c.SwapOuts)
}
