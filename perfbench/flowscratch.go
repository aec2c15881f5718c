package main

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"time"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/riscv"
	"repro/internal/serve"
	"repro/internal/tech"
)

// flowScratchCases bounds the inputs one run can use; a run at the
// default window uses about a hundred.
const flowScratchCases = 512

// flowScratch runs cold one-shot flows on the full-scale (32-register)
// core: no fork, no memo, no daemon cache and no Monte Carlo.
type flowScratch struct {
	nl    map[tech.Arch]*netlist.Netlist
	cases []flowCase
	rt    *rtReader
	// untraced and traced hold each input's result fingerprint.
	untraced, traced map[int]string
	// counts sums the traced results' route and buffer counts.
	counts [5]float64
	seed   int64
	// stagedTwins makes untraced ops run staged too, in traced runs, so
	// trace.overhead_frac compares like with like and shows the cost of
	// the tracer alone.
	stagedTwins bool
}

func runFlowScratch(o options) (*report, error) {
	return runClosed(o, func() (closedWorkload, error) { return newFlowScratch(o.seed, o.trace) })
}

func newFlowScratch(seed int64, stagedTwins bool) (*flowScratch, error) {
	ffet := cell.NewLibrary(tech.NewFFET())
	cfet := cell.NewLibrary(tech.NewCFET())
	nl, _, err := riscv.Generate(ffet, riscv.Config{Name: "rv32", Registers: 32})
	if err != nil {
		return nil, err
	}
	nlC, err := nl.Remap(cfet)
	if err != nil {
		return nil, err
	}
	w := &flowScratch{
		nl:          map[tech.Arch]*netlist.Netlist{tech.FFET: nl, tech.CFET: nlC},
		cases:       genFlowCases(seed, flowScratchCases),
		seed:        seed,
		rt:          newRTReader(),
		untraced:    map[int]string{},
		traced:      map[int]string{},
		stagedTwins: stagedTwins,
	}
	// Warm up with one flow per pattern, so the first measured ops do
	// not pay for growing the heap.
	for _, c := range w.cases[:len(scratchPatterns)] {
		if _, err := core.RunFlow(w.nl[c.Arch], c.Cfg); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (w *flowScratch) cycle() int  { return len(scratchPatterns) }
func (w *flowScratch) minOps() int { return 0 }
func (w *flowScratch) close()      {}

// op runs one cold flow: core.RunFlow in untraced runs, or a staged
// session driven one RunToCtx per stage in traced runs, with a span
// around each stage on traced ops.
func (w *flowScratch) op(in int, tr *tracer, parent int) error {
	c := w.cases[in%len(w.cases)]
	var res *core.FlowResult
	var err error
	if tr == nil && !w.stagedTwins {
		res, err = core.RunFlow(w.nl[c.Arch], c.Cfg)
	} else {
		res, err = w.staged(c, tr, parent, in)
	}
	if err != nil {
		return err
	}
	if !res.Valid {
		return fmt.Errorf("%s: invalid result: %s", c.Cfg.Name, res.Reason)
	}
	fp, err := fingerprint(res)
	if err != nil {
		return err
	}
	if tr == nil {
		w.untraced[in] = fp
	} else {
		w.traced[in] = fp
		w.counts[0] += float64(res.Rerouted)
		w.counts[1] += float64(res.DRVs())
		w.counts[2] += float64(res.Vias)
		w.counts[3] += float64(res.CTSBuffers)
		w.counts[4] += float64(res.SynthBuffers)
	}
	return nil
}

// staged runs c through a core.Flow one stage at a time. tr may be nil.
func (w *flowScratch) staged(c flowCase, tr *tracer, parent, op int) (*core.FlowResult, error) {
	f, err := core.NewFlow(w.nl[c.Arch], c.Cfg)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	for s := core.Stage(0); int(s) < core.NumStages && !f.Halted(); s++ {
		var a0 uint64
		var t0 time.Duration
		if tr != nil {
			a0 = w.rt.allocBytes()
			t0 = tr.now()
		}
		if err := f.RunToCtx(ctx, s); err != nil {
			return nil, err
		}
		if tr != nil {
			tr.add(s.String(), parent, op, t0, tr.now(), w.rt.allocBytes()-a0)
		}
	}
	return f.Result(), nil
}

// check compares results of the same configs. Traced, every traced
// input must equal its untraced (staged) twin, which shows the tracer
// does not change outputs. Untraced, two seed-chosen inputs of the
// window are re-run staged and must equal their one-shot results.
// Inputs whose op failed are already counted and are not checked.
func (w *flowScratch) check(traced bool) (int, error) {
	bad := 0
	if traced {
		for in, fp := range w.traced {
			if twin, ok := w.untraced[in]; ok && twin != fp {
				bad++
				fmt.Printf("flow-scratch: input %d: traced result differs from untraced\n", in)
			}
		}
		return bad, nil
	}
	ins := slices.Sorted(maps.Keys(w.untraced))
	if len(ins) == 0 {
		return 0, nil
	}
	r := newRand(w.seed, 0xc4ec)
	for _, in := range []int{ins[r.IntN(len(ins))], ins[r.IntN(len(ins))]} {
		res, err := w.staged(w.cases[in%len(w.cases)], nil, -1, in)
		if err != nil {
			return 0, err
		}
		fp, err := fingerprint(res)
		if err != nil {
			return 0, err
		}
		if fp != w.untraced[in] {
			bad++
			fmt.Printf("flow-scratch: input %d: staged result differs from one-shot\n", in)
		}
	}
	return bad, nil
}

func (w *flowScratch) layers(vals map[string]float64, spans []span, ops int) {
	stageLayers(vals, spans, ops)
	for i, name := range []string{"route.rerouted", "route.drvs", "route.vias", "cts.buffers", "synth.buffers"} {
		vals[name] = w.counts[i] / float64(ops)
	}
}

// fingerprint renders the deterministic content of a flow result: the
// daemon's wire summary plus the counts it leaves out.
func fingerprint(res *core.FlowResult) (string, error) {
	b, err := json.Marshal(struct {
		Summary  serve.Summary
		Rerouted int
		Pins     core.PartitionStats
	}{serve.NewSummary(res), res.Rerouted, res.PinStats})
	return string(b), err
}
