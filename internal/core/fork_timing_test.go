package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/tech"
	"repro/internal/variation"
)

// TestConcurrentBPForksMatchRunFlow is the race test for forks off one
// completed parent: several back-pin children resume at StagePartition
// concurrently (sharing only the immutable stage outputs and the
// read-only netlist, each timing itself on its own engine), and every
// result must match a from-scratch RunFlow of the same config. Run with
// -race to make the isolation claim meaningful.
func TestConcurrentBPForksMatchRunFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-flow test in -short mode")
	}
	nl := smallCore(t, ffetLib)
	base := DefaultFlowConfig(tech.Pattern{Front: 12, Back: 12}, 1.5, 0.70)
	base.BackPinFraction = 0.5
	parent, err := NewFlow(nl, base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parent.Run(); err != nil {
		t.Fatal(err)
	}

	bps := []float64{0.4, 0.3, 0.16, 0.04}
	arts := make([]string, len(bps))
	errs := make([]error, len(bps))
	var wg sync.WaitGroup
	for i, bp := range bps {
		wg.Add(1)
		go func(i int, bp float64) {
			defer wg.Done()
			child, err := parent.Fork(func(c *FlowConfig) { c.BackPinFraction = bp })
			if err != nil {
				errs[i] = err
				return
			}
			res, err := child.Run()
			if err != nil {
				errs[i] = err
				return
			}
			arts[i] = flowArtifact(t, res)
		}(i, bp)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("bp=%.2f: %v", bps[i], err)
		}
	}
	for i, bp := range bps {
		cfg := base
		cfg.BackPinFraction = bp
		want, err := RunFlow(smallCore(t, ffetLib), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if wa := flowArtifact(t, want); arts[i] != wa {
			t.Errorf("bp=%.2f: concurrent forked run differs from scratch:\n--- scratch\n%s--- forked\n%s",
				bp, wa, arts[i])
		}
	}
}

// TestPostSTAForkVariationBasis pins the one engine-sharing case Fork
// keeps: a child whose delta only reaches StagePower never re-times, so
// it shares the parent's engine and RC view, and a Monte Carlo study
// over its VariationBasis must summarize exactly like the parent's.
func TestPostSTAForkVariationBasis(t *testing.T) {
	base := DefaultFlowConfig(tech.Pattern{Front: 12, Back: 12}, 1.5, 0.70)
	base.BackPinFraction = 0.5
	parent := completedFlow(t, base, "small")

	child, err := parent.Fork(func(c *FlowConfig) { c.Power.Activity = 0.21 })
	if err != nil {
		t.Fatal(err)
	}
	if child.NextStage() != StagePower {
		t.Fatalf("activity fork resumes at %v, want %v", child.NextStage(), StagePower)
	}
	if _, err := child.Run(); err != nil {
		t.Fatal(err)
	}

	opt := variation.DefaultOptions()
	opt.Samples = 256
	opt.Seed = 11
	study := func(f *Flow) *variation.Summary {
		t.Helper()
		b, err := f.VariationBasis()
		if err != nil {
			t.Fatal(err)
		}
		sum, err := variation.Study(context.Background(), b, opt)
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	want, got := study(parent), study(child)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("post-STA fork's MC summary differs from the parent's:\n got %+v\nwant %+v", got, want)
	}
	if want.SigmaWNSPs == 0 {
		t.Error("study saw no variation; the comparison shows nothing")
	}
}
