package sta

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/extract"
	"repro/internal/netlist"
)

// web builds a deterministic pseudo-random reconvergent circuit: nFlops
// flops whose Q outputs feed a DAG of nGates 1- and 2-input gates, with
// every flop's D pin capturing one of the generated signals. Multiple
// endpoints with crossing cones is exactly the shape where incremental
// cone re-timing can go wrong (an improved cone must be able to unseat
// the critical endpoint).
func web(t *testing.T, nFlops, nGates int, seed int64) *netlist.Netlist {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nl := netlist.New(fmt.Sprintf("web%d", seed), lib)
	nl.AddPort("clk", netlist.In)
	nl.MarkClock("clk")
	nl.AddPort("pi0", netlist.In)
	nl.AddPort("pi1", netlist.In)

	// Signal pool the gate DAG draws fanins from (always already driven,
	// so the combinational graph is acyclic by construction).
	pool := []string{"pi0", "pi1"}
	for i := 0; i < nFlops; i++ {
		q := fmt.Sprintf("q%d", i)
		pool = append(pool, q)
	}
	for g := 0; g < nGates; g++ {
		out := fmt.Sprintf("g%d", g)
		a := pool[rng.Intn(len(pool))]
		if rng.Intn(3) == 0 {
			nl.MustAdd("inv"+out, lib.MustCell("INVD1"), map[string]string{"I": a, "ZN": out})
		} else {
			b := pool[rng.Intn(len(pool))]
			nl.MustAdd("nd"+out, lib.MustCell("NAND2D1"), map[string]string{"A1": a, "A2": b, "ZN": out})
		}
		pool = append(pool, out)
	}
	for i := 0; i < nFlops; i++ {
		d := pool[2+nFlops+rng.Intn(nGates)] // capture a gate output
		nl.MustAdd(fmt.Sprintf("ff%d", i), lib.MustCell("DFFD1"),
			map[string]string{"D": d, "CP": "clk", "Q": fmt.Sprintf("q%d", i)})
	}
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
	return nl
}

// randomRC builds a dense RC view with pseudo-random caps and Elmore
// tables for every non-clock net.
func randomRC(nl *netlist.Netlist, rng *rand.Rand) []*extract.NetRC {
	rc := make([]*extract.NetRC, len(nl.Nets))
	for _, n := range nl.Nets {
		if n.IsClock {
			continue
		}
		el := make([]float64, len(n.Sinks))
		for j := range el {
			el[j] = 2 + 30*rng.Float64()
		}
		rc[n.Seq] = &extract.NetRC{
			Name:       n.Name,
			TotalCapFF: 1 + 8*rng.Float64(),
			WireCapFF:  rng.Float64(),
			ElmorePs:   el,
			WirelenNm:  int64(rng.Intn(5000)),
		}
	}
	return rc
}

// perturbRC returns a copy of rc where a random subset of nets got a new
// view — scaled up (degraded cones) or down (improved cones, the case a
// monotonic worst-endpoint update would get wrong). Clean nets keep the
// identical *NetRC; diffRC reports the perturbed set.
func perturbRC(rc []*extract.NetRC, rng *rand.Rand, frac float64) []*extract.NetRC {
	out := make([]*extract.NetRC, len(rc))
	copy(out, rc)
	for seq, v := range rc {
		if v == nil || rng.Float64() >= frac {
			continue
		}
		scale := 0.25 + 1.5*rng.Float64() // [0.25, 1.75): both directions
		el := make([]float64, len(v.ElmorePs))
		for j, e := range v.ElmorePs {
			el[j] = e * scale
		}
		out[seq] = &extract.NetRC{
			Name:       v.Name,
			TotalCapFF: v.TotalCapFF * scale,
			WireCapFF:  v.WireCapFF,
			ElmorePs:   el,
			WirelenNm:  v.WirelenNm,
		}
	}
	return out
}

// rcEqual reports whether two extracted net views are bit-identical:
// every float field compared by its IEEE-754 bit pattern, the Elmore
// tables element-wise. A net whose view is rcEqual to the retained one
// cannot perturb any downstream arrival by even one ULP, so it may be
// left out of a dirty set.
func rcEqual(a, b *extract.NetRC) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Name != b.Name || a.WirelenNm != b.WirelenNm ||
		math.Float64bits(a.TotalCapFF) != math.Float64bits(b.TotalCapFF) ||
		math.Float64bits(a.WireCapFF) != math.Float64bits(b.WireCapFF) ||
		len(a.ElmorePs) != len(b.ElmorePs) {
		return false
	}
	for i, v := range a.ElmorePs {
		if math.Float64bits(v) != math.Float64bits(b.ElmorePs[i]) {
			return false
		}
	}
	return true
}

// diffRC returns the Seqs of every net whose view differs between two
// dense RC databases — the dirty set ReanalyzeStateCtx consumes. Slots
// present in only one database are reported dirty.
func diffRC(old, new []*extract.NetRC) []int32 {
	var dst []int32
	for i := 0; i < max(len(old), len(new)); i++ {
		var o, w *extract.NetRC
		if i < len(old) {
			o = old[i]
		}
		if i < len(new) {
			w = new[i]
		}
		if !rcEqual(o, w) {
			dst = append(dst, int32(i))
		}
	}
	return dst
}

// reanalyzeInto re-times eng through ReanalyzeStateCtx and reduces the
// updated state into dst with the same reduction a full analysis uses,
// so a result can be compared against AnalyzeInto bit for bit.
func reanalyzeInto(eng *Engine, dst *Result, in Input, opt Options, dirty []int32) error {
	if err := eng.ReanalyzeStateCtx(context.Background(), in, opt, dirty); err != nil {
		return err
	}
	return eng.finishInto(dst, in)
}

// TestNetRCEqualBitExact pins the cleanliness predicate the dirty sets
// of these tests are built with: rcEqual must be true only for
// bit-identical views — any field differing by even one ULP marks the
// net dirty.
func TestNetRCEqualBitExact(t *testing.T) {
	mk := func() *extract.NetRC {
		return &extract.NetRC{Name: "n", TotalCapFF: 3.25, WireCapFF: 1.5,
			ElmorePs: []float64{2, 4, 8}, WirelenNm: 120}
	}
	a, b := mk(), mk()
	if !rcEqual(a, b) || !rcEqual(a, a) {
		t.Fatal("identical views must compare equal")
	}
	if !rcEqual(nil, nil) || rcEqual(a, nil) || rcEqual(nil, a) {
		t.Error("nil handling wrong")
	}
	ulp := func(v float64) float64 { return math.Nextafter(v, math.Inf(1)) }
	cases := map[string]func(*extract.NetRC){
		"name":    func(n *extract.NetRC) { n.Name = "m" },
		"cap":     func(n *extract.NetRC) { n.TotalCapFF = ulp(n.TotalCapFF) },
		"wirecap": func(n *extract.NetRC) { n.WireCapFF = ulp(n.WireCapFF) },
		"elmore":  func(n *extract.NetRC) { n.ElmorePs[1] = ulp(n.ElmorePs[1]) },
		"sinks":   func(n *extract.NetRC) { n.ElmorePs = n.ElmorePs[:2] },
		"wirelen": func(n *extract.NetRC) { n.WirelenNm++ },
	}
	for name, mut := range cases {
		c := mk()
		mut(c)
		if rcEqual(a, c) {
			t.Errorf("%s change not detected", name)
		}
	}
}

// TestDiffRC pins the changed-net reporting: exactly the mutated Seqs,
// in ascending order, with nil/missing slots treated as dirty.
func TestDiffRC(t *testing.T) {
	mk := func(capFF float64) *extract.NetRC {
		return &extract.NetRC{Name: "n", TotalCapFF: capFF, ElmorePs: []float64{1}}
	}
	old := []*extract.NetRC{mk(1), mk(2), nil, mk(4), mk(5)}
	new := []*extract.NetRC{mk(1), mk(9), nil, mk(4), mk(5)}
	if d := diffRC(old, old); len(d) != 0 {
		t.Errorf("self-diff = %v, want empty", d)
	}
	if d := diffRC(old, new); len(d) != 1 || d[0] != 1 {
		t.Errorf("diff = %v, want [1]", d)
	}
	// A nil slot on one side only is dirty; equal *values* in distinct
	// allocations are clean.
	new2 := []*extract.NetRC{mk(1), mk(2), mk(3), mk(4), nil}
	if d := diffRC(old, new2); len(d) != 2 || d[0] != 2 || d[1] != 4 {
		t.Errorf("diff = %v, want [2 4]", d)
	}
	// Length mismatch: the tail is dirty.
	if d := diffRC(old[:3], old); len(d) != 2 || d[0] != 3 || d[1] != 4 {
		t.Errorf("tail diff = %v, want [3 4]", d)
	}
}

// requireSameResult asserts exact (bit-level) equality of two results.
func requireSameResult(t *testing.T, tag string, got, want *Result) {
	t.Helper()
	if got.MinPeriodPs != want.MinPeriodPs || got.AchievedFreqGHz != want.AchievedFreqGHz ||
		got.MaxArrivalPs != want.MaxArrivalPs || got.WorstSlewPs != want.WorstSlewPs ||
		got.RegToReg != want.RegToReg {
		t.Fatalf("%s: incremental %+v != full %+v", tag, got, want)
	}
	if len(got.CriticalPath) != len(want.CriticalPath) {
		t.Fatalf("%s: path length %d != %d", tag, len(got.CriticalPath), len(want.CriticalPath))
	}
	for i := range want.CriticalPath {
		if got.CriticalPath[i] != want.CriticalPath[i] {
			t.Fatalf("%s: path[%d] %+v != %+v", tag, i, got.CriticalPath[i], want.CriticalPath[i])
		}
	}
}

// TestReanalyzeMatchesFullAnalyze is the incremental-correctness property
// test: over many random circuits and random dirty subsets — including
// improved-slack cones, empty dirty sets, and chains of successive
// reanalyses — ReanalyzeStateCtx on a forked engine must reproduce a from-scratch
// full Analyze bit for bit.
func TestReanalyzeMatchesFullAnalyze(t *testing.T) {
	opt := DefaultOptions()
	for round := int64(0); round < 8; round++ {
		rng := rand.New(rand.NewSource(100 + round))
		nl := web(t, 4+int(round%3), 24+int(round)*7, round)
		clk := make([]float64, len(nl.Instances))
		for i := range clk {
			clk[i] = 10 * rng.Float64()
		}

		rc := randomRC(nl, rng)
		base, err := NewEngine(nl)
		if err != nil {
			t.Fatal(err)
		}
		var baseRes Result
		if err := base.AnalyzeInto(&baseRes, Input{NetRC: rc, ClockArrivalPs: clk}, opt); err != nil {
			t.Fatal(err)
		}

		// A chain of successive perturbations on one forked engine: each
		// step's retained state is the previous step's output, exactly
		// how a fork chain of flow sessions uses it.
		eng := base.Fork()
		cur := rc
		for step := 0; step < 5; step++ {
			next := perturbRC(cur, rng, 0.15)
			dirty := diffRC(cur, next)
			var got Result
			if err := reanalyzeInto(eng, &got, Input{NetRC: next, ClockArrivalPs: clk}, opt, dirty); err != nil {
				t.Fatal(err)
			}
			if !eng.Stats().Incremental {
				t.Fatalf("round %d step %d: reanalysis did not take the incremental path", round, step)
			}
			if len(dirty) > 0 && eng.Stats().RecomputedCells == 0 && eng.Stats().RecomputedEndpoints == 0 {
				t.Fatalf("round %d step %d: dirty set %d but nothing recomputed", round, step, len(dirty))
			}
			var want Result
			fresh, err := NewEngine(nl)
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.AnalyzeInto(&want, Input{NetRC: next, ClockArrivalPs: clk}, opt); err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, fmt.Sprintf("round %d step %d (%d dirty)", round, step, len(dirty)), &got, &want)
			cur = next
		}

		// Empty dirty set: nothing may be recomputed, and the result must
		// reproduce the retained analysis exactly.
		empty := base.Fork()
		var got Result
		if err := reanalyzeInto(empty, &got, Input{NetRC: rc, ClockArrivalPs: clk}, opt, nil); err != nil {
			t.Fatal(err)
		}
		if st := empty.Stats(); !st.Incremental || st.RecomputedCells != 0 || st.RecomputedEndpoints != 0 {
			t.Fatalf("round %d: empty dirty set recomputed work: %+v", round, st)
		}
		requireSameResult(t, fmt.Sprintf("round %d empty-dirty", round), &got, &baseRes)

		// Dirty superset: listing clean nets as dirty costs work but must
		// not change a single bit (their re-evaluation reproduces the
		// retained values and the cone stops).
		super := base.Fork()
		all := make([]int32, len(nl.Nets))
		for i := range all {
			all[i] = int32(i)
		}
		if err := reanalyzeInto(super, &got, Input{NetRC: rc, ClockArrivalPs: clk}, opt, all); err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, fmt.Sprintf("round %d superset", round), &got, &baseRes)
	}
}

// TestReanalyzeImprovedCriticalCone pins the non-monotonic case directly:
// when the dirty cone is the one holding the critical endpoint and its RC
// improves, the reported period must drop to the full-analysis value —
// a max that is only ever ratcheted up would keep the stale worst.
func TestReanalyzeImprovedCriticalCone(t *testing.T) {
	nl := pipeline(t, 6)
	opt := DefaultOptions()

	// Heavy RC on a mid net makes the forward path the binding check.
	heavy := make([]*extract.NetRC, len(nl.Nets))
	s3 := nl.Net("s3")
	heavy[s3.Seq] = &extract.NetRC{Name: "s3", TotalCapFF: 30, ElmorePs: make([]float64, len(s3.Sinks))}
	for j := range heavy[s3.Seq].ElmorePs {
		heavy[s3.Seq].ElmorePs[j] = 80
	}

	base, err := NewEngine(nl)
	if err != nil {
		t.Fatal(err)
	}
	heavyRes, err := base.Analyze(Input{NetRC: heavy}, opt)
	if err != nil {
		t.Fatal(err)
	}
	heavyPeriod := heavyRes.MinPeriodPs

	// Improve the critical net: same structure, light RC.
	light := make([]*extract.NetRC, len(nl.Nets))
	copy(light, heavy)
	light[s3.Seq] = &extract.NetRC{Name: "s3", TotalCapFF: 2, ElmorePs: make([]float64, len(s3.Sinks))}
	for j := range light[s3.Seq].ElmorePs {
		light[s3.Seq].ElmorePs[j] = 1
	}
	dirty := diffRC(heavy, light)
	if len(dirty) != 1 || dirty[0] != int32(s3.Seq) {
		t.Fatalf("dirty = %v, want exactly [%d]", dirty, s3.Seq)
	}

	eng := base.Fork()
	var got Result
	if err := reanalyzeInto(eng, &got, Input{NetRC: light}, opt, dirty); err != nil {
		t.Fatal(err)
	}
	want, err := Analyze(nl, Input{NetRC: light}, opt)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "improved cone", &got, want)
	if !(got.MinPeriodPs < heavyPeriod) {
		t.Fatalf("improved cone did not lower the period: %.3f -> %.3f", heavyPeriod, got.MinPeriodPs)
	}
	if !eng.Stats().Incremental {
		t.Fatal("expected the incremental path")
	}
}

// TestReanalyzeBasisMismatchFallsBack locks the safety valve: a reanalysis
// under different options or clock arrivals than the retained basis must
// run a full analysis (and say so in Stats), never a wrong incremental one.
func TestReanalyzeBasisMismatchFallsBack(t *testing.T) {
	nl := pipeline(t, 4)
	eng, err := NewEngine(nl)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	if _, err := eng.Analyze(Input{}, opt); err != nil {
		t.Fatal(err)
	}

	slower := opt
	slower.InputSlewPs = 22
	var got Result
	if err := reanalyzeInto(eng, &got, Input{}, slower, nil); err != nil {
		t.Fatal(err)
	}
	if eng.Stats().Incremental {
		t.Fatal("option change must force a full analysis")
	}
	want, err := Analyze(nl, Input{}, slower)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "opt fallback", &got, want)

	// Clock-table change (including nil vs non-nil) is a basis change too.
	arr := arrivals(nl, map[string]float64{"ff1": 4, "ff2": 9})
	if err := reanalyzeInto(eng, &got, Input{ClockArrivalPs: arr}, slower, nil); err != nil {
		t.Fatal(err)
	}
	if eng.Stats().Incremental {
		t.Fatal("clock change must force a full analysis")
	}
	want, err = Analyze(nl, Input{ClockArrivalPs: arr}, slower)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "clk fallback", &got, want)

	// An engine with no retained state at all falls back as well.
	cold, err := NewEngine(nl)
	if err != nil {
		t.Fatal(err)
	}
	if err := reanalyzeInto(cold, &got, Input{}, opt, nil); err != nil {
		t.Fatal(err)
	}
	if cold.Stats().Incremental {
		t.Fatal("cold engine must run a full analysis")
	}

	// The basis must not alias a caller's clock buffer: mutating the same
	// slice in place between analyses is a basis change and must be
	// detected (an aliased compare would see the buffer equal to itself).
	clk := arrivals(nl, map[string]float64{"ff1": 4, "ff2": 9})
	if _, err := eng.Analyze(Input{ClockArrivalPs: clk}, opt); err != nil {
		t.Fatal(err)
	}
	clk[nl.Instance("ff2").Seq] = 25 // in-place mutation of the caller buffer
	if err := reanalyzeInto(eng, &got, Input{ClockArrivalPs: clk}, opt, nil); err != nil {
		t.Fatal(err)
	}
	if eng.Stats().Incremental {
		t.Fatal("in-place clock mutation must force a full analysis")
	}
	want, err = Analyze(nl, Input{ClockArrivalPs: clk}, opt)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "aliased clk fallback", &got, want)

	// A dirty Seq outside the engine's net table (diffRC emits those when
	// the RC views disagree on the design size) is a basis mismatch, not
	// a net to skip.
	if err := reanalyzeInto(eng, &got, Input{ClockArrivalPs: clk}, opt, []int32{int32(len(nl.Nets)) + 3}); err != nil {
		t.Fatal(err)
	}
	if eng.Stats().Incremental {
		t.Fatal("out-of-range dirty Seq must force a full analysis")
	}
	requireSameResult(t, "out-of-range fallback", &got, want)
}

// TestForkIsolation guards the clone-on-fork contract: re-timing a forked
// engine must not perturb the parent's retained state or results, and
// sibling forks must be independent of each other.
func TestForkIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nl := web(t, 5, 40, 7)
	rc := randomRC(nl, rng)
	opt := DefaultOptions()

	parent, err := NewEngine(nl)
	if err != nil {
		t.Fatal(err)
	}
	parentRes, err := parent.Analyze(Input{NetRC: rc}, opt)
	if err != nil {
		t.Fatal(err)
	}
	parentSnap := parentRes.Clone()

	a, b := parent.Fork(), parent.Fork()
	rcA := perturbRC(rc, rng, 0.5)
	rcB := perturbRC(rc, rng, 0.5)
	var resA, resB Result
	if err := reanalyzeInto(a, &resA, Input{NetRC: rcA}, opt, diffRC(rc, rcA)); err != nil {
		t.Fatal(err)
	}
	if err := reanalyzeInto(b, &resB, Input{NetRC: rcB}, opt, diffRC(rc, rcB)); err != nil {
		t.Fatal(err)
	}

	// The parent re-running over its original view must reproduce its
	// original result: no child write leaked into its state.
	var again Result
	if err := reanalyzeInto(parent, &again, Input{NetRC: rc}, opt, nil); err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "parent after child reanalyses", &again, parentSnap)

	for tag, pair := range map[string]struct {
		in  []*extract.NetRC
		got *Result
	}{"fork A": {rcA, &resA}, "fork B": {rcB, &resB}} {
		want, err := Analyze(nl, Input{NetRC: pair.in}, opt)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, tag, pair.got, want)
	}
}

// TestAnalyzeIntoAllocsFree pins the caller-reusable storage contract:
// once the destination Result is warmed, both AnalyzeInto and a dirty
// ReanalyzeStateCtx plus its reduction run without a single allocation.
func TestAnalyzeIntoAllocsFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nl := web(t, 4, 30, 3)
	rc := randomRC(nl, rng)
	rc2 := perturbRC(rc, rng, 0.3)
	dirty := diffRC(rc, rc2)
	opt := DefaultOptions()

	eng, err := NewEngine(nl)
	if err != nil {
		t.Fatal(err)
	}
	var dst Result
	if err := eng.AnalyzeInto(&dst, Input{NetRC: rc}, opt); err != nil { // warm path buffer
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := eng.AnalyzeInto(&dst, Input{NetRC: rc}, opt); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("AnalyzeInto allocates %.1f objects/op, want 0", allocs)
	}
	if err := reanalyzeInto(eng, &dst, Input{NetRC: rc2}, opt, dirty); err != nil { // warm dirty scratch
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := reanalyzeInto(eng, &dst, Input{NetRC: rc2}, opt, dirty); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("reanalysis allocates %.1f objects/op, want 0", allocs)
	}
}

// TestReanalyzeStateMatchesFull covers the state-only reanalysis entry
// the Monte Carlo loop drives: chained ReanalyzeStateCtx calls on forked
// engines (including forks of forks) must leave endpoint state whose
// SlackStats match a from-scratch full analysis of the same view bit for
// bit, at every chain step and fork depth.
func TestReanalyzeStateMatchesFull(t *testing.T) {
	opt := DefaultOptions()
	for round := int64(0); round < 6; round++ {
		rng := rand.New(rand.NewSource(500 + round))
		nl := web(t, 5+int(round%3), 30+int(round)*5, 900+round)
		clk := make([]float64, len(nl.Instances))
		for i := range clk {
			clk[i] = 12 * rng.Float64()
		}
		rc := randomRC(nl, rng)
		base, err := NewEngine(nl)
		if err != nil {
			t.Fatal(err)
		}
		var res Result
		if err := base.AnalyzeInto(&res, Input{NetRC: rc, ClockArrivalPs: clk}, opt); err != nil {
			t.Fatal(err)
		}
		period := res.MinPeriodPs * 0.97 // slightly infeasible: nonzero TNS

		eng := base.Fork()
		cur := rc
		for step := 0; step < 6; step++ {
			if step == 3 {
				// Re-fork mid-chain: the child inherits the chain state
				// and must keep producing exact results.
				eng = eng.Fork()
			}
			next := perturbRC(cur, rng, 0.2)
			dirty := diffRC(cur, next)
			in := Input{NetRC: next, ClockArrivalPs: clk}
			if err := eng.ReanalyzeStateCtx(context.Background(), in, opt, dirty); err != nil {
				t.Fatal(err)
			}
			if !eng.Stats().Incremental {
				t.Fatalf("round %d step %d: state reanalysis not incremental", round, step)
			}
			gotW, gotT := eng.SlackStats(period)

			fresh, err := NewEngine(nl)
			if err != nil {
				t.Fatal(err)
			}
			var want Result
			if err := fresh.AnalyzeInto(&want, in, opt); err != nil {
				t.Fatal(err)
			}
			wantW, wantT := fresh.SlackStats(period)
			if gotW != wantW || gotT != wantT {
				t.Fatalf("round %d step %d: SlackStats (%v, %v) != full (%v, %v)",
					round, step, gotW, gotT, wantW, wantT)
			}
			// The state must also still reduce into a bit-identical full
			// Result through the full analysis's reduction.
			var got Result
			if err := reanalyzeInto(eng, &got, in, opt, nil); err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, fmt.Sprintf("round %d step %d state", round, step), &got, &want)
			cur = next
		}
	}
}
