package main

import (
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"

	"multiclock/internal/graph"
)

// fakeClock returns the times in order, one per call.
func fakeClock(times ...int64) func() int64 {
	return func() int64 {
		t := times[0]
		times = times[1:]
		return t
	}
}

func TestNestedSpanSelfTime(t *testing.T) {
	// A [0,100] holds B [10,30] and an aggregated call C [40,60], which
	// itself holds a stored span D [45,55] (a daemon pass inside a step).
	tr := newTracerClock(fakeClock(0, 10, 30, 40, 45, 55, 60, 100))
	tr.Begin("A")
	tr.Begin("B")
	tr.End()
	tr.BeginHot("C")
	tr.Begin("D")
	tr.End()
	tr.End()
	tr.End()

	wantSelf := map[string]int64{"A": 60, "B": 20, "C": 10, "D": 10}
	for name, want := range wantSelf {
		if got := tr.self[name]; got != want {
			t.Errorf("self(%s) = %d, want %d", name, got, want)
		}
	}
	if got := tr.Total("C"); got != 20 {
		t.Errorf("Total(C) = %d, want 20", got)
	}
	// C is aggregated: no span of its own, a histogram sample instead.
	if len(tr.spans) != 3 {
		t.Fatalf("stored %d spans, want 3 (A, B, D)", len(tr.spans))
	}
	if h := tr.Durations("C"); h.N() != 1 || h.Quantile(0.5) != 20 {
		t.Errorf("C histogram: n=%d p50=%v, want one sample of 20", h.N(), h.Quantile(0.5))
	}
	d := tr.spans[2]
	if d.Name != "D" || tr.spans[d.Parent].Name != "A" || d.Self != 10 {
		t.Errorf("span D = %+v, want parent A (nearest stored span) and self 10", d)
	}
	var sum int64
	for _, e := range tr.SelfTimes() {
		sum += e.NS
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want the root's 100", sum)
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	tr.Begin("x")
	tr.BeginHot("y")
	tr.End()
	tr.End()
	tr.Region("z", func() {})
	if tr.Total("x") != 0 || tr.TotalPrefix("") != 0 || tr.Durations("x") != nil || tr.SelfTimes() != nil {
		t.Error("nil tracer recorded something")
	}
}

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int64
		max  float64
		want float64
	}{
		{0, 99, 0},
		{19, 99, 0},
		{20, 99, 50},
		{40, 99, 75},
		{100, 99, 90},
		{200, 99, 95},
		{999, 99, 95},
		{1000, 99, 99},
		{10_000, 99, 99},
		{10_000, 100, 99.9},
		{9_999, 100, 99},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n, c.max); got != c.want {
			t.Errorf("tailPercentile(%d, %v) = %v, want %v", c.n, c.max, got, c.want)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	var h Hist
	for v := int64(1); v <= 10_000; v++ {
		h.Add(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact := q * 10_000
		if got := h.Quantile(q); math.Abs(got-exact)/exact > 0.07 {
			t.Errorf("Quantile(%v) = %v, want within 7%% of %v", q, got, exact)
		}
	}
	p, v := tail(&h, 99)
	if p != 99 || v != h.Quantile(0.99) {
		t.Errorf("tail = (%v, %v), want p99", p, v)
	}
	for _, x := range []int64{0, 1, 15, 16, 17, 31, 32, 1000, 123_456_789, 1 << 40} {
		i := histIndex(x)
		if lo, hi := histLow(i), histLow(i+1); x < lo || x >= hi {
			t.Errorf("value %d in bucket %d = [%d,%d)", x, i, lo, hi)
		}
	}
}

func TestZeroGuards(t *testing.T) {
	for _, c := range [][2]float64{{1, 0}, {0, 0}, {math.NaN(), 1}, {1, math.NaN()}} {
		if got := ratio(c[0], c[1]); got != 0 {
			t.Errorf("ratio(%v, %v) = %v, want 0", c[0], c[1], got)
		}
	}
	var empty Hist
	if empty.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile is not 0")
	}
	if p, v := tail(nil, 99); p != 0 || v != 0 {
		t.Error("tail of a nil histogram is not zero")
	}
	if median(nil) != 0 {
		t.Error("median of nothing is not 0")
	}

	// A repetition with no accesses and no wall time still reports finite
	// numbers, so the result line stays valid JSON.
	out := map[string]metric{}
	endToEnd([]phase{{}}, out)
	for _, name := range []string{"host_maccess_per_s", "cpu_s_per_maccess", "alloc_bytes_per_access"} {
		if out[name].Value != 0 {
			t.Errorf("%s = %v on a zero-access, zero-wall repetition, want 0", name, out[name].Value)
		}
	}
	if _, err := json.Marshal(out); err != nil {
		t.Errorf("result does not encode: %v", err)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestLayerShares(t *testing.T) {
	tr := newTracerClock(fakeClock(0, 0, 60, 60, 90, 100))
	tr.Begin("measure")
	tr.Begin("ycsb.run.A")
	tr.End()
	tr.Begin("daemon.kpromoted")
	tr.End()
	tr.End()
	shares := layerShares(tr, 20)
	want := map[string]float64{"kvstore+machine": 0.4, "ycsb.chooser": 0.2, "daemon": 0.3, "measure": 0.1}
	for k, w := range want {
		if math.Abs(shares[k]-w) > 1e-9 {
			t.Errorf("share[%s] = %v, want %v", k, shares[k], w)
		}
	}
	if got := largest(shares); got != "kvstore+machine" {
		t.Errorf("largest = %s", got)
	}
}

func TestHostGraphReference(t *testing.T) {
	// 0-1-2 path, 3-4 edge, 5 isolated; duplicate and reversed edges.
	edges := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 1}, {U: 3, V: 4}, {U: 0, V: 1}}
	g := newHostGraph(edges, 6)
	if got := g.components(); !slices.Equal(got, []int32{0, 0, 0, 3, 3, 5}) {
		t.Errorf("components = %v", got)
	}
	depth := g.bfsDepths(0)
	if !slices.Equal(depth, []int32{0, 1, 2, -1, -1, -1}) {
		t.Fatalf("depths = %v", depth)
	}
	if err := g.checkBFS(0, []int32{0, 0, 1, -1, -1, -1}, depth); err != nil {
		t.Errorf("valid BFS tree rejected: %v", err)
	}
	bad := map[string][]int32{
		"wrong depth":       {0, 0, 0, -1, -1, -1},
		"unreached parent":  {0, 0, 1, 4, -1, -1},
		"unparented vertex": {0, -1, 1, -1, -1, -1},
		"short":             {0, 0},
	}
	for name, parent := range bad {
		if err := g.checkBFS(0, parent, depth); err == nil {
			t.Errorf("%s: invalid BFS tree accepted", name)
		}
	}
}

func TestParseFlags(t *testing.T) {
	opt, err := parseFlags([]string{"--workload", "gapbs-kron", "--seed", "7", "--seconds", "3", "--trace", "1"})
	if err != nil || opt.workload != "gapbs-kron" || opt.seed != 7 || opt.seconds != 3 || !opt.trace {
		t.Errorf("parseFlags = %+v, %v", opt, err)
	}
	for _, args := range [][]string{
		{"--seconds", "0"},
		{"--trace", "2"},
		{"--seed", "-1"},
		{"extra"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%v) accepted", args)
		}
	}
	if _, err := newWorkload("nope", 1); err == nil || !strings.Contains(err.Error(), "ycsb-paper") {
		t.Errorf("unknown workload error = %v", err)
	}
}
