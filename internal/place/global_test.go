package place

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/cell"
	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/riscv"
	"repro/internal/synth"
	"repro/internal/tech"
)

// synthDesign returns the synthesized RV32 core with regs registers over
// l, the post-synthesis netlist every flow places.
func synthDesign(t testing.TB, l *cell.Library, regs int) *netlist.Netlist {
	t.Helper()
	nl, _, err := riscv.Generate(l, riscv.Config{Name: fmt.Sprintf("g%d", regs), Registers: regs})
	if err != nil {
		t.Fatal(err)
	}
	syn, err := synth.Run(nl, synth.DefaultOptions(1.5))
	if err != nil {
		t.Fatal(err)
	}
	return syn.Netlist
}

// globalMatchesReference places two snapshots of nl, one with GlobalCtx
// and one with the reference placer, and requires every instance and
// port position to be equal.
func globalMatchesReference(t *testing.T, name string, nl *netlist.Netlist, fp *floorplan.Plan, opt Options) {
	t.Helper()
	got, want := nl.Snapshot(), nl.Snapshot()
	ctx := context.Background()
	if err := GlobalCtx(ctx, got, fp, opt); err != nil {
		t.Fatalf("%s: GlobalCtx: %v", name, err)
	}
	if err := refGlobalCtx(ctx, want, fp, opt); err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	for i, w := range want.Instances {
		if g := got.Instances[i]; g.Pos != w.Pos {
			t.Fatalf("%s: %s at %v, reference %v", name, w.Name, g.Pos, w.Pos)
		}
	}
	for i, w := range want.Ports {
		if g := got.Ports[i]; g.Pos != w.Pos {
			t.Fatalf("%s: port %s at %v, reference %v", name, w.Name, g.Pos, w.Pos)
		}
	}
}

// TestGlobalMatchesReference holds the flat global-placement kernel to the
// pointer-chasing, comparator-sorted placer it replaced (reference_test.go):
// every position must be bit-identical across designs, architectures,
// seeds, utilizations, attraction fanout cutoffs, fixed instances, and
// cores wider than 2^31 nm or with negative coordinates.
func TestGlobalMatchesReference(t *testing.T) {
	cfetLib := cell.NewLibrary(tech.NewCFET())
	type design struct {
		name string
		nl   *netlist.Netlist
	}
	var designs []design
	for _, regs := range []int{8, 16, 32} {
		designs = append(designs, design{fmt.Sprintf("ffet%d", regs), synthDesign(t, lib, regs)})
	}
	cfet, err := designs[1].nl.Remap(cfetLib)
	if err != nil {
		t.Fatal(err)
	}
	designs = append(designs, design{"cfet16", cfet})

	for _, d := range designs {
		for _, util := range []float64{0.62, 0.80} {
			fp, err := floorplan.New(d.nl.Lib.Stack, d.nl.CellAreaNm2(), util, 1.0)
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range []int64{1, 7, 1009} {
				opt := DefaultOptions()
				opt.Seed = seed
				globalMatchesReference(t, fmt.Sprintf("%s/u%.2f/seed%d", d.name, util, seed), d.nl, fp, opt)
			}
		}
	}

	small := designs[0].nl
	fp, err := floorplan.New(lib.Stack, small.CellAreaNm2(), 0.7, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// Lowered fanout cutoffs move nets across the attraction boundary; one
	// iteration and a tiny bin count take the short-run and bin-floor
	// branches.
	for _, fanout := range []int{0, 2, 5} {
		opt := DefaultOptions()
		opt.MaxAttractFanout = fanout
		globalMatchesReference(t, fmt.Sprintf("fanout%d", fanout), small, fp, opt)
	}
	globalMatchesReference(t, "iters1", small, fp, Options{Seed: 9, GlobalIters: 1, BinCount: 2, MaxAttractFanout: 2})

	// Fixed instances keep their positions and pull their neighbors as
	// static endpoints.
	withFixed := func(core geom.Rect) *netlist.Netlist {
		fixed := small.Snapshot()
		for i, inst := range fixed.Instances {
			if i%9 == 4 {
				inst.Fixed = true
				inst.Pos = geom.Pt(core.Lo.X+int64(i*37)%core.W(), core.Lo.Y+int64(i*53)%core.H())
			}
		}
		return fixed
	}
	globalMatchesReference(t, "fixed", withFixed(fp.Core), fp, DefaultOptions())

	// Hand-built cores: one spanning more than 2^31 nm on both axes (three
	// radix passes), one whose lower-left corner is negative
	// (negative coordinates once fixed instances sit there).
	for _, core := range []geom.Rect{
		geom.R(0, 0, 3<<30, 5<<29),
		geom.R(-40000, -25000, 30000, 45000),
	} {
		hand := &floorplan.Plan{Stack: lib.Stack, Core: core}
		globalMatchesReference(t, fmt.Sprintf("core%v", core), small, hand, DefaultOptions())
		globalMatchesReference(t, fmt.Sprintf("core%v/fixed", core), withFixed(core), hand, DefaultOptions())
	}
}

// TestGlobalAllocsIndependentOfIters pins that the global placer sizes
// its buffers once per call: no attract or rankSpread pass allocates.
func TestGlobalAllocsIndependentOfIters(t *testing.T) {
	nl := smallDesign(t)
	fp, err := floorplan.New(lib.Stack, nl.CellAreaNm2(), 0.7, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(iters int) float64 {
		opt := DefaultOptions()
		opt.GlobalIters = iters
		return testing.AllocsPerRun(5, func() {
			if err := GlobalCtx(context.Background(), nl, fp, opt); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a2, a24 := allocs(2), allocs(24); a2 != a24 {
		t.Errorf("GlobalCtx allocs: %v at 2 iterations, %v at 24", a2, a24)
	}
}

// BenchmarkPlaceGlobal measures global placement of the frozen
// post-synthesis 32-register core at the flow's default options. Every
// iteration places a fresh snapshot, restored outside the timer.
func BenchmarkPlaceGlobal(b *testing.B) {
	nl := synthDesign(b, lib, 32)
	fp, err := floorplan.New(lib.Stack, nl.CellAreaNm2(), 0.72, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	opt := DefaultOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		work := nl.Snapshot()
		b.StartTimer()
		if err := GlobalCtx(ctx, work, fp, opt); err != nil {
			b.Fatal(err)
		}
	}
}
