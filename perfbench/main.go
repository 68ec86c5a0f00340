// Command perfbench is the simulator's benchmark. It runs one named
// workload for a fixed host-time budget, repeating a deterministic unit of
// work (set-up, a measured phase, correctness checks) and reporting medians
// over the repetitions. Tracing off (-trace 0), it prints the end-to-end
// metrics; tracing on (-trace 1), it records spans around every call into
// the simulator's layers and prints the per-layer metrics instead. The last
// line of standard output is always the JSON result.
//
//	go run . -workload ycsb-paper -seed 1 -seconds 25 -trace 0
//
// README.md in this directory lists the workloads, the metrics, and which
// layer metric should move which end-to-end metric on which workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	commit   string
	spansDir string
}

func main() {
	opt, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	// The simulation is single-threaded; a second P serves the garbage
	// collector. Pinning it keeps GC behaviour the same on larger hosts.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	w, err := newWorkload(opt.workload, opt.seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	printLine("host", hostFingerprint(opt.commit))
	res, err := run(opt, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func parseFlags(args []string) (options, error) {
	var opt options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&opt.workload, "workload", "", "workload name: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&opt.seed, "seed", 1, "workload seed; every input is derived from it")
	fs.IntVar(&opt.seconds, "seconds", 25, "host seconds to keep repeating the workload")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	fs.StringVar(&opt.commit, "commit", "unknown", "source revision stamped into the host fingerprint")
	fs.StringVar(&opt.spansDir, "spans-dir", "", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return opt, err
	}
	if fs.NArg() > 0 {
		return opt, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if opt.seconds < 1 {
		return opt, fmt.Errorf("-seconds must be at least 1, got %d", opt.seconds)
	}
	if trace != 0 && trace != 1 {
		return opt, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	opt.trace = trace == 1
	return opt, nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// checks counts correctness checks; a failure is also described on stderr.
type checks struct {
	attempted, failed int
}

func (c *checks) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

func (c *checks) noErr(err error, what string) {
	c.check(err == nil, "%s: %v", what, err)
}

// Repetition counts. Medians need at least three plain repetitions; the
// traced run alternates traced and plain repetitions and needs two of each.
const (
	minPlainReps  = 3
	minTracedReps = 2
)

func run(opt options, w workload) (result, error) {
	ck := &checks{}
	var tr *Tracer
	if opt.trace {
		tr = NewTracer()
	}
	tw, hasTwin := w.(twinned)
	var plain, traced, twins []phase
	var first string
	settle()
	record := func(ph phase) phase {
		ph.peakRSSMB = peakRSSMB()
		if first == "" {
			first = ph.sig
		} else {
			ck.check(ph.sig == first, "virtual time and mem counters differ between repetitions:\n%s\n%s", first, ph.sig)
		}
		settle()
		return ph
	}
	deadline := time.Now().Add(time.Duration(opt.seconds) * time.Second)
	for {
		if opt.trace {
			traced = append(traced, record(w.rep(tr, ck)))
		}
		plain = append(plain, record(w.rep(nil, ck)))
		if hasTwin && opt.trace {
			twins = append(twins, record(tw.twin()))
		}
		enough := len(plain) >= minPlainReps
		if opt.trace {
			enough = len(traced) >= minTracedReps
		}
		if enough && time.Now().After(deadline) {
			break
		}
	}
	if hasTwin && !opt.trace {
		// The telemetry-off twin must reproduce the instrumented run's
		// virtual time and counters: telemetry is passive.
		record(tw.twin())
	}

	res := result{Metrics: map[string]metric{}}
	if opt.trace {
		if err := layerMetrics(opt, w, tr, traced, plain, twins, ck, res.Metrics); err != nil {
			return res, err
		}
	} else {
		endToEnd(plain, res.Metrics)
	}
	res.Attempted, res.Failed = ck.attempted, ck.failed
	res.Correct = ck.failed == 0
	return res, nil
}

// settle collects the last repetition's garbage, returns it to the OS and
// restarts the peak-RSS count, so every repetition starts from the same
// heap state and its peak is its own.
func settle() {
	debug.FreeOSMemory()
	resetPeakRSS()
}

// endToEnd derives the end-to-end metrics from the plain repetitions.
func endToEnd(reps []phase, out map[string]metric) {
	med := func(f func(p phase) float64) float64 { return medianOf(reps, f) }
	out["setup_s"] = metric{med(func(p phase) float64 { return p.setupS }), "s"}
	out["host_maccess_per_s"] = metric{med(func(p phase) float64 {
		return ratio(float64(p.accesses)/1e6, p.wallS)
	}), "Maccess/s"}
	out["cpu_s_per_maccess"] = metric{med(func(p phase) float64 {
		return ratio(p.cpuS, float64(p.accesses)/1e6)
	}), "s/Maccess"}
	out["alloc_bytes_per_access"] = metric{med(func(p phase) float64 {
		return ratio(p.allocBytes, float64(p.accesses))
	}), "B/access"}
	out["peak_rss_mb"] = metric{med(func(p phase) float64 { return p.peakRSSMB }), "MB"}
	out["virtual_s"] = metric{float64(reps[0].virtualNS) / 1e9, "s"}
}

// printLine writes one labelled JSON line ahead of the result.
func printLine(label string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return
	}
	fmt.Printf("%s %s\n", label, b)
}

// hostFingerprint identifies the host and build a result came from.
func hostFingerprint(commit string) map[string]any {
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// writeSpans writes the traced run's spans and returns the file's path.
func writeSpans(opt options, tr *Tracer) (string, error) {
	if opt.spansDir == "" {
		return "", nil
	}
	if err := os.MkdirAll(opt.spansDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(opt.spansDir, fmt.Sprintf("%s-seed%d.json", opt.workload, opt.seed))
	data, err := json.Marshal(map[string]any{
		"workload": opt.workload,
		"seed":     opt.seed,
		"spans":    tr.spans,
	})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
