package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestSameSeedSameInputs(t *testing.T) {
	if !reflect.DeepEqual(genFlowCases(7, 64), genFlowCases(7, 64)) {
		t.Error("flow-scratch cases differ for one seed")
	}
	if reflect.DeepEqual(genFlowCases(7, 64), genFlowCases(8, 64)) {
		t.Error("flow-scratch cases do not depend on the seed")
	}
	if !reflect.DeepEqual(genTableOrders(7, 8), genTableOrders(7, 8)) {
		t.Error("paper-eval table orders differ for one seed")
	}
	a, sa := mcCases(7)
	b, sb := mcCases(7)
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(sa, sb) {
		t.Error("mc-study cases differ for one seed")
	}
	if _, sc := mcCases(8); reflect.DeepEqual(sc, sa) {
		t.Error("mc-study sampler seeds do not depend on the seed")
	}
	reqs := func(seed int64) []daemonReq {
		g := newDaemonGen(seed)
		for range daemonWarmup {
			g.next()
		}
		return genDaemonReqs(g, 200)
	}
	if !reflect.DeepEqual(reqs(7), reqs(7)) {
		t.Error("daemon-mix requests differ for one seed")
	}
	if reflect.DeepEqual(reqs(7), reqs(8)) {
		t.Error("daemon-mix requests do not depend on the seed")
	}
}

// Every block of inputs holds the same strata, whatever the seed.
func TestInputStrata(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		cases := genFlowCases(seed, 4*len(scratchPatterns))
		for i := 0; i < len(cases); i += len(scratchPatterns) {
			seen := map[string]bool{}
			for _, c := range cases[i : i+len(scratchPatterns)] {
				seen[c.Arch.String()+c.Cfg.Pattern.String()] = true
			}
			if len(seen) != len(scratchPatterns) {
				t.Errorf("seed %d: flow-scratch block %d repeats a pattern", seed, i/len(scratchPatterns))
			}
		}
		g := newDaemonGen(seed)
		count := map[string]int{}
		for range 3 * len(daemonBlock) {
			count[g.next().Kind]++
		}
		want := map[string]int{}
		for _, shape := range daemonBlock {
			want[daemonKind(shape)] += 3
		}
		if !reflect.DeepEqual(count, want) {
			t.Errorf("seed %d: daemon-mix kinds %v, want %v", seed, count, want)
		}
	}
}

func daemonKind(shape string) string {
	switch shape {
	case shapeFlowNew, shapeFlowRepeat:
		return kindFlow
	case shapeSweepBP, shapeSweepTarget:
		return kindSweep
	}
	return kindMC
}

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - i) // descending, so tailOf must sort
	}
	return out
}

func TestTailOf(t *testing.T) {
	if v := tailOf(nil).Value; !math.IsNaN(v) {
		t.Errorf("empty set: got %v, want NaN", v)
	}
	cases := []struct {
		n      int
		value  float64
		beyond int
	}{
		{1, 1, 0},
		{10, 10, 0},
		{20, 20, 0}, // the index with 10 beyond would sit below the median
		{21, 11, 10},
		{100, 90, 10},
		{1000, 990, 10},
	}
	for _, c := range cases {
		got := tailOf(seq(c.n))
		if got.Value != c.value || got.Beyond != c.beyond || got.N != c.n {
			t.Errorf("n=%d: got %+v, want value %v with %d beyond", c.n, got, c.value, c.beyond)
		}
		if c.beyond > 0 && got.Pct != 100*c.value/float64(c.n) {
			t.Errorf("n=%d: percentile %v, want %v", c.n, got.Pct, 100*c.value/float64(c.n))
		}
	}
	// Ties: the selected value has at least 10 samples at or above it.
	xs := append(slices.Repeat([]float64{5}, 15), slices.Repeat([]float64{9}, 15)...)
	if got := tailOf(xs); got.Value != 9 {
		t.Errorf("ties: got %v, want 9", got.Value)
	}
	in := seq(30)
	tailOf(in)
	if !reflect.DeepEqual(in, seq(30)) {
		t.Error("tailOf modified its input")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd: got %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even: got %v", m)
	}
	if m := median(nil); !math.IsNaN(m) {
		t.Errorf("empty: got %v", m)
	}
}

func sp(id, parent int, start, end time.Duration) span {
	return span{ID: id, Parent: parent, Name: "s", Start: start, End: end}
}

func TestSelfTimes(t *testing.T) {
	cases := []struct {
		name  string
		spans []span
		want  []time.Duration
	}{
		{"leaf", []span{sp(0, -1, 0, 50)}, []time.Duration{50}},
		{"disjoint children", []span{sp(0, -1, 0, 100), sp(1, 0, 10, 20), sp(2, 0, 40, 70)},
			[]time.Duration{60, 10, 30}},
		{"overlapping children count once", []span{sp(0, -1, 0, 100), sp(1, 0, 10, 30), sp(2, 0, 20, 50), sp(3, 0, 50, 60)},
			[]time.Duration{50, 20, 30, 10}},
		{"child inside child", []span{sp(0, -1, 0, 100), sp(1, 0, 10, 30), sp(2, 0, 12, 18)},
			[]time.Duration{80, 20, 6}},
		{"nested levels", []span{sp(0, -1, 0, 100), sp(1, 0, 10, 60), sp(2, 1, 20, 40)},
			[]time.Duration{50, 30, 20}},
		{"child outside parent is clipped", []span{sp(0, -1, 0, 100), sp(1, 0, 90, 130), sp(2, 0, -20, 10)},
			[]time.Duration{80, 40, 30}},
		{"fully covered", []span{sp(0, -1, 0, 100), sp(1, 0, 0, 100)}, []time.Duration{0, 100}},
	}
	for _, c := range cases {
		if got := selfTimes(c.spans); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

func TestLayerTotals(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "place", Start: 0, End: 40, AllocBytes: 7},
		{ID: 2, Parent: 0, Name: "place", Start: 50, End: 60, AllocBytes: 3},
	}
	self, alloc := layerTotals(spans)
	if self["op"] != 50 || self["place"] != 50 || alloc["place"] != 10 {
		t.Errorf("got self %v alloc %v", self, alloc)
	}
}

var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// The benchmark's metric tables are well formed and match BENCHMARK.json.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, metricName)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: bad unit %q", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bm.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, want %v", bm.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bm.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the program's table")
	}
	for _, w := range bm.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
}

func TestFinalize(t *testing.T) {
	defs := []metricDef{{"a", "ms"}, {"b", "1"}}
	got, err := finalize(map[string]float64{"a": 2}, defs)
	if err != nil || got["a"].Value != 2 || got["b"].Value != 0 || got["b"].Unit != "1" {
		t.Errorf("got %v, %v", got, err)
	}
	if _, err := finalize(map[string]float64{"c": 1}, defs); err == nil {
		t.Error("undeclared metric accepted")
	}
	if _, err := finalize(map[string]float64{"a": math.NaN()}, defs); err == nil {
		t.Error("NaN accepted")
	}
}

// Spans recorded from several goroutines all land, each under its own
// id; run with -race.
func TestTracerConcurrent(t *testing.T) {
	tr := newTracer()
	h := startHeapWatch(time.Millisecond)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 100 {
				id := tr.reserve("op", -1, g*100+i)
				tr.add("child", id, g*100+i, tr.now(), tr.now(), 0)
				tr.finish(id)
			}
		}()
	}
	wg.Wait()
	if h.finish() == 0 {
		t.Error("heap watch saw no heap")
	}
	spans := tr.snapshot()
	if len(spans) != 800 {
		t.Fatalf("got %d spans, want 800", len(spans))
	}
	for i, s := range spans {
		if s.ID != i || s.End < s.Start {
			t.Fatalf("span %d: %+v", i, s)
		}
	}
}

// The flow-scratch output check skips inputs whose op failed (they are
// already counted) and runs when no op succeeded.
func TestFlowScratchCheckSkipsFailedInputs(t *testing.T) {
	w := &flowScratch{untraced: map[int]string{}, traced: map[int]string{}}
	if bad, err := w.check(false); bad != 0 || err != nil {
		t.Errorf("untraced check with no successful op = %d, %v; want 0, nil", bad, err)
	}
	w.untraced[4] = "b"
	w.traced[3] = "a" // untraced twin failed
	w.traced[4] = "c"
	if bad, err := w.check(true); bad != 1 || err != nil {
		t.Errorf("traced check = %d, %v; want 1 mismatch (input 4 only)", bad, err)
	}
}

// countingWorkload is a closed workload of instant ops.
type countingWorkload struct{ min, ops int }

func (w *countingWorkload) op(int, *tracer, int) error             { w.ops++; return nil }
func (w *countingWorkload) cycle() int                             { return 1 }
func (w *countingWorkload) minOps() int                            { return w.min }
func (w *countingWorkload) check(bool) (int, error)                { return 0, nil }
func (w *countingWorkload) layers(map[string]float64, []span, int) {}
func (w *countingWorkload) close()                                 {}

// An untraced run measures at least minOps ops, however short its
// window.
func TestRunClosedMinOps(t *testing.T) {
	w := &countingWorkload{min: 4}
	rep, err := runClosed(options{workload: "test", seconds: 1e-9},
		func() (closedWorkload, error) { w.ops = 0; return w, nil })
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempted != 4 || w.ops != 4 {
		t.Errorf("attempted %d ops (%d run), want 4", rep.Attempted, w.ops)
	}
}
