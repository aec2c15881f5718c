package sta

import (
	"context"
	"errors"
	"testing"
)

// TestAnalyzeCtxCancelled pins the cancellation contract: a cancelled
// context aborts the propagation with the context cause in the chain, and
// the engine drops its retained basis so the next incremental call falls
// back to a full — and correct — analysis.
func TestAnalyzeCtxCancelled(t *testing.T) {
	nl := pipeline(t, 4)
	e, err := NewEngine(nl)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var res Result
	if err := e.AnalyzeIntoCtx(ctx, &res, Input{}, DefaultOptions()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled analyze = %v, want context.Canceled in chain", err)
	}

	// The half-propagated state must not be trusted: a reanalysis right
	// after the cancel must run full (not incremental) and match a fresh
	// engine's answer exactly.
	var got Result
	if err := reanalyzeInto(e, &got, Input{}, DefaultOptions(), nil); err != nil {
		t.Fatalf("reanalysis after cancel: %v", err)
	}
	if e.Stats().Incremental {
		t.Error("reanalysis after cancel ran incrementally off a dropped basis")
	}
	want, err := Analyze(nl, Input{}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got.MinPeriodPs != want.MinPeriodPs || got.MaxArrivalPs != want.MaxArrivalPs {
		t.Errorf("post-cancel result (%.3f, %.3f) != fresh (%.3f, %.3f)",
			got.MinPeriodPs, got.MaxArrivalPs, want.MinPeriodPs, want.MaxArrivalPs)
	}
}

// TestReanalyzeCtxCancelled covers the incremental path's cancel check.
func TestReanalyzeCtxCancelled(t *testing.T) {
	nl := pipeline(t, 4)
	e, err := NewEngine(nl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Analyze(Input{}, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = e.ReanalyzeStateCtx(ctx, Input{}, DefaultOptions(), []int32{int32(nl.Net("s1").Seq)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled reanalyze = %v, want context.Canceled in chain", err)
	}
}
