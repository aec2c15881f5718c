package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/tech"
)

// paperEvalOrders bounds the table orders one run can use; an op takes
// several seconds, so a run uses a handful.
const paperEvalOrders = 64

// paperEvalMinOps is the least number of evaluations an untraced run
// measures. An evaluation takes 5-10 s on a 2-core x86-64 host, as the
// host's speed drifts, so a 15 s window alone would hold two to four,
// and the median and tail would rest on as few as two samples.
const paperEvalMinOps = 4

// paperEval runs the ffetexp user's whole evaluation: a fresh Quick
// exp.Suite running every table, in a seed-permuted order.
type paperEval struct {
	orders [][]string
	// csv holds every op's table CSVs by id; stats the cache counters of
	// each traced op's suite.
	csv   []map[string]string
	stats []exp.CacheStats
}

func runPaperEval(o options) (*report, error) {
	return runClosed(o, func() (closedWorkload, error) { return newPaperEval(o.seed) })
}

// newPaperEval warms up with one Quick suite, the libraries and
// netlists each op rebuilds, and a few flows on it.
func newPaperEval(seed int64) (*paperEval, error) {
	s, err := exp.NewSuite(exp.Quick)
	if err != nil {
		return nil, err
	}
	for _, p := range []tech.Pattern{{Front: 6, Back: 6}, {Front: 8, Back: 4}, {Front: 12, Back: 12}, {Front: 4, Back: 4}} {
		cfg := core.DefaultFlowConfig(p, 1.5, 0.72)
		cfg.BackPinFraction = 0.5
		if _, err := s.Run(tech.FFET, cfg); err != nil {
			return nil, err
		}
	}
	return &paperEval{orders: genTableOrders(seed, paperEvalOrders)}, nil
}

func (w *paperEval) cycle() int  { return 1 }
func (w *paperEval) minOps() int { return paperEvalMinOps }
func (w *paperEval) close()      {}

func (w *paperEval) op(in int, tr *tracer, parent int) error {
	s, err := exp.NewSuite(exp.Quick)
	if err != nil {
		return err
	}
	out := map[string]string{}
	for _, id := range w.orders[in%len(w.orders)] {
		run, ok := s.Experiment(id)
		if !ok {
			return fmt.Errorf("unknown experiment %q", id)
		}
		var t0 time.Duration
		if tr != nil {
			t0 = tr.now()
		}
		t, err := run()
		if tr != nil {
			tr.add("exp."+id, parent, in, t0, tr.now(), 0)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		out[id] = t.CSV()
	}
	w.csv = append(w.csv, out)
	if tr != nil {
		w.stats = append(w.stats, s.Stats())
	}
	return nil
}

// check compares every op's tables with one reference evaluation that
// runs every point as a scratch flow (DisablePrefixSharing). The
// reference does not depend on the seed, so equal tables here are equal
// across seeds too.
func (w *paperEval) check(bool) (int, error) {
	ref, err := exp.NewSuite(exp.Quick)
	if err != nil {
		return 0, err
	}
	ref.DisablePrefixSharing = true
	want := map[string]string{}
	for _, id := range exp.ExperimentIDs() {
		run, _ := ref.Experiment(id)
		t, err := run()
		if err != nil {
			return 0, fmt.Errorf("reference %s: %w", id, err)
		}
		want[id] = t.CSV()
	}
	bad := 0
	for i, got := range w.csv {
		for id, csv := range want {
			if got[id] != csv {
				bad++
				fmt.Printf("paper-eval: op %d: table %s differs from the scratch reference\n", i, id)
			}
		}
	}
	return bad, nil
}

func (w *paperEval) layers(vals map[string]float64, spans []span, ops int) {
	self, _ := layerTotals(spans)
	for _, id := range exp.ExperimentIDs() {
		vals["exp."+id+".ms"] = ms(self["exp."+id]) / float64(ops)
	}
	var st exp.CacheStats
	for _, s := range w.stats {
		st.MemoHits += s.MemoHits
		st.MemoMisses += s.MemoMisses
		st.SynthRootHits += s.SynthRootHits
		st.SynthRootMisses += s.SynthRootMisses
		st.DiffForks += s.DiffForks
		st.DiffFallbacks += s.DiffFallbacks
		st.FullSynthForks += s.FullSynthForks
	}
	vals["exp.memo_hit_ratio"] = ratio(float64(st.MemoHits), float64(st.MemoHits+st.MemoMisses))
	vals["exp.synthroot_hit_ratio"] = ratio(float64(st.SynthRootHits), float64(st.SynthRootHits+st.SynthRootMisses))
	vals["exp.diff_fork_ratio"] = ratio(float64(st.DiffForks), float64(st.DiffForks+st.DiffFallbacks+st.FullSynthForks))
}
