package main

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/variation"
)

// Monte Carlo op shape: one Sampler.Run of mcSamples samples on
// mcWorkers workers, alternating the exp tables' screening floor and the
// variation default. A sample's cost grows with how many nets its
// perturbation moves past the floor, so a study's cost depends on its
// seed; mcSeeds seeds per run average that out. The samplers' studies
// differ up to sixfold in cost, and a run's tail (10 samples beyond)
// must sit inside the ops of the slowest checkpoint and floor, an eighth
// of the run. With the default 4096 samples a 15 s run holds 40-90 ops,
// so that eighth is 5-11 ops and the tail jumps between two samplers'
// latencies from run to run; 1024 samples give it 20 or more.
const (
	mcSamples = 1024
	mcWorkers = 2
	mcSeeds   = 4
)

var mcFloors = []float64{0.25, 0.40}

// mcStudy re-runs prepared Monte Carlo samplers: the flows to StageSTA
// and the samplers are built in setup, so an op is the variation and
// STA propagation kernel alone.
type mcStudy struct {
	// samplers holds one sampler per checkpoint, seed and floor, in that
	// order of nesting, so consecutive ops alternate floors.
	samplers []mcSampler
	runSeed  int64
	sums     map[int][]*variation.Summary // by sampler index, in op order
	// tracedCands sums the candidate count of each traced op's sampler.
	tracedCands float64
}

// mcSampler is a prepared sampler with the basis and options it was
// built from.
type mcSampler struct {
	*variation.Sampler
	base *variation.Basis
	opt  variation.Options
}

func runMCStudy(o options) (*report, error) {
	return runClosed(o, func() (closedWorkload, error) { return newMCStudy(o.seed) })
}

func newMCStudy(seed int64) (*mcStudy, error) {
	cases, seeds := mcCases(seed)
	s, err := exp.NewSuite(exp.Quick)
	if err != nil {
		return nil, err
	}
	w := &mcStudy{runSeed: seed, sums: map[int][]*variation.Summary{}}
	for _, c := range cases {
		arch, cfg, err := c.Config()
		if err != nil {
			return nil, err
		}
		f, err := core.NewFlow(s.Netlist(arch), cfg)
		if err != nil {
			return nil, err
		}
		if err := f.RunTo(core.StageSTA); err != nil {
			return nil, err
		}
		b, err := f.VariationBasis()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.Name, err)
		}
		for _, sd := range seeds {
			for _, floor := range mcFloors {
				opt := variation.DefaultOptions()
				opt.Samples = mcSamples
				opt.Workers = mcWorkers
				opt.Seed = sd
				opt.FloorFF = floor
				sm, err := variation.NewSampler(b, opt)
				if err != nil {
					return nil, err
				}
				w.samplers = append(w.samplers, mcSampler{Sampler: sm, base: b, opt: opt})
			}
		}
	}
	return w, nil
}

func (w *mcStudy) cycle() int  { return len(w.samplers) }
func (w *mcStudy) minOps() int { return 0 }
func (w *mcStudy) close()      {}

func (w *mcStudy) op(in int, tr *tracer, parent int) error {
	k := in % len(w.samplers)
	var t0 time.Duration
	if tr != nil {
		t0 = tr.now()
	}
	sum, err := w.samplers[k].Run(context.Background())
	if tr != nil {
		tr.add("variation.study", parent, in, t0, tr.now(), 0)
		w.tracedCands += float64(w.samplers[k].Candidates())
	}
	if err != nil {
		return err
	}
	w.sums[k] = append(w.sums[k], sum)
	return nil
}

// check requires every op on one sampler to repeat the same summary,
// and two seed-chosen samplers' summaries to equal a fresh one-worker
// study on the same basis.
func (w *mcStudy) check(bool) (int, error) {
	bad := 0
	for k, sums := range w.sums {
		for i, s := range sums[1:] {
			if !reflect.DeepEqual(s, sums[0]) {
				bad++
				fmt.Printf("mc-study: sampler %d: op %d summary differs from its first op\n", k, i+1)
			}
		}
	}
	r := newRand(w.runSeed, 0x3cc)
	for _, k := range []int{r.IntN(len(w.samplers)), r.IntN(len(w.samplers))} {
		if len(w.sums[k]) == 0 {
			continue
		}
		sm := w.samplers[k]
		opt := sm.opt
		opt.Workers = 1
		one, err := variation.Study(context.Background(), sm.base, opt)
		if err != nil {
			return 0, err
		}
		if !reflect.DeepEqual(one, w.sums[k][0]) {
			bad++
			fmt.Printf("mc-study: sampler %d: workers=1 summary differs from workers=%d\n", k, mcWorkers)
		}
	}
	return bad, nil
}

func (w *mcStudy) layers(vals map[string]float64, spans []span, ops int) {
	self, _ := layerTotals(spans)
	study := self["variation.study"]
	vals["variation.candidates"] = w.tracedCands / float64(ops)
	vals["variation.study_ms"] = ms(study) / float64(ops)
	vals["variation.samples_per_s"] = ratio(float64(ops*mcSamples), study.Seconds())
}
