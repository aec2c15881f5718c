package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/serve"
	"repro/internal/tech"
)

// Every generator derives its stream from the run seed and a
// workload-specific constant, so the same seed gives the same inputs
// and workloads never share draws.
func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// round3 rounds to three decimals, keeping drawn knobs short and exact
// in request bodies.
func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

// flowCase is one flow-scratch input.
type flowCase struct {
	Arch tech.Arch
	Cfg  core.FlowConfig
}

// scratchPatterns are the flow-scratch strata: every block of
// len(scratchPatterns) cases holds each pattern once, in seeded order,
// so every run sees the same pattern mix.
var scratchPatterns = []struct {
	arch tech.Arch
	p    tech.Pattern
}{
	{tech.FFET, tech.Pattern{Front: 6, Back: 6}},
	{tech.FFET, tech.Pattern{Front: 8, Back: 4}},
	{tech.FFET, tech.Pattern{Front: 12, Back: 12}},
	{tech.CFET, tech.Pattern{Front: 12}},
}

// genFlowCases draws n flow-scratch configs. The ranges keep every run
// valid and free of long DRV negotiation on the full-scale core: target
// 1.2-1.8 GHz; utilization 0.60-0.70 on FFET and 0.50-0.56 on CFET,
// whose single-sided routing exceeds the DRV limit for some targets and
// placement seeds from about 0.60; back-pin fraction 0.3-0.6 on FFET (0 on
// CFET, which has no backside signal layers).
func genFlowCases(seed int64, n int) []flowCase {
	r := newRand(seed, 0xf10)
	out := make([]flowCase, 0, n)
	for len(out) < n {
		for _, k := range r.Perm(len(scratchPatterns)) {
			sp := scratchPatterns[k]
			target := round3(1.2 + 0.6*r.Float64())
			util := round3(0.60 + 0.10*r.Float64())
			if sp.arch == tech.CFET {
				util = round3(0.50 + 0.06*r.Float64())
			}
			cfg := core.DefaultFlowConfig(sp.p, target, util)
			bp := round3(0.3 + 0.3*r.Float64())
			if sp.p.Back > 0 {
				cfg.BackPinFraction = bp
			}
			cfg.Seed = 1 + r.Int64N(1000)
			cfg.Name = fmt.Sprintf("%s-F%dB%d-t%g-u%g-bp%g-s%d", sp.arch, sp.p.Front, sp.p.Back,
				cfg.TargetFreqGHz, cfg.Utilization, cfg.BackPinFraction, cfg.Seed)
			out = append(out, flowCase{Arch: sp.arch, Cfg: cfg})
		}
	}
	return out[:n]
}

// genTableOrders draws n permutations of the experiment ids, one per
// paper-eval op.
func genTableOrders(seed int64, n int) [][]string {
	r := newRand(seed, 0xe4a1)
	ids := exp.ExperimentIDs()
	out := make([][]string, n)
	for i := range out {
		out[i] = make([]string, len(ids))
		for j, k := range r.Perm(len(ids)) {
			out[i][j] = ids[k]
		}
	}
	return out
}

// mcCases returns the mc-study checkpoints and the seeded sampler seeds.
// The checkpoints are the exp suite's Monte Carlo design point (target
// 1.5 GHz, utilization 0.72) on FM6BM6 and FM12BM12, each with back-pin
// fraction 0.5 and 0. They do not depend on the seed: a study's cost
// follows its checkpoint's routed wire caps, and seed-drawn placement
// seeds, targets and utilizations moved the median op between 320 and
// 650 ms from seed to seed. The seed draws the samples' perturbations:
// mcSeeds sampler seeds, each used on every checkpoint and floor.
func mcCases(seed int64) ([]serve.FlowSpec, []uint64) {
	var out []serve.FlowSpec
	for _, p := range []tech.Pattern{{Front: 6, Back: 6}, {Front: 12, Back: 12}} {
		for _, bp := range []float64{0.5, 0} {
			out = append(out, serve.FlowSpec{Front: p.Front, Back: p.Back,
				TargetGHz: 1.5, Util: 0.72, BackPins: bp})
		}
	}
	r := newRand(seed, 0x3c)
	seeds := make([]uint64, mcSeeds)
	for i := range seeds {
		seeds[i] = 1 + r.Uint64N(1<<32)
	}
	return out, seeds
}

// Request kinds of the daemon-mix workload.
const (
	kindFlow  = "flow"
	kindSweep = "sweep"
	kindMC    = "mc"
)

var daemonKinds = []string{kindFlow, kindSweep, kindMC}

// daemonReq is one generated daemon-mix request.
type daemonReq struct {
	Kind string // kindFlow, kindSweep or kindMC
	Body []byte // JSON request body
}

// The daemon-mix class space: every (pattern, target, utilization)
// triple is one checkpoint class (one placed-and-clocked prefix). With
// quick-scale prefixes of about 6.5 MiB, the 75 classes make a working
// set of about 1.9x the daemon's default 256 MiB checkpoint budget.
var (
	daemonPatterns = []tech.Pattern{{Front: 6, Back: 6}, {Front: 8, Back: 4}, {Front: 12, Back: 12}}
	daemonTargets  = []float64{1.3, 1.4, 1.5, 1.6, 1.7}
	daemonUtils    = []float64{0.62, 0.65, 0.68, 0.71, 0.74}
)

// daemonBlock is the daemon-mix request mix, stratified: every block of
// len(daemonBlock) requests holds exactly these request shapes, in
// seeded order, so the mix does not drift between seeds. Three flows in
// fourteen repeat an earlier spec (result-memo hits); the others are
// new leaves of a Zipf-drawn class (checkpoint hits, or cold builds
// when the class is not resident). The shares place the median inside
// the single-flow latency mode and the tail inside the mode of the
// slowest shape, target sweeps (two chained syntheses), rather than on
// the edge between two modes, where it would jump between runs.
var daemonBlock = []string{
	shapeFlowNew, shapeFlowNew, shapeFlowNew, shapeFlowNew,
	shapeFlowNew, shapeFlowNew, shapeFlowNew, shapeFlowNew,
	shapeFlowNew, shapeFlowNew, shapeFlowNew,
	shapeFlowRepeat, shapeFlowRepeat, shapeFlowRepeat,
	shapeSweepBP, shapeSweepBP, shapeSweepTarget, shapeSweepTarget,
	shapeMC, shapeMC,
}

// Request shapes of daemonBlock.
const (
	shapeFlowNew     = "flow-new"
	shapeFlowRepeat  = "flow-repeat"
	shapeSweepBP     = "sweep-back_pins"
	shapeSweepTarget = "sweep-target_ghz"
	shapeMC          = "mc"
)

const (
	daemonZipfS     = 1.4 // Zipf exponent of class popularity
	daemonMCSamples = 256
	// daemonRankSeed fixes which classes are popular: the order is the
	// same for every run seed, so seeds vary the draws, not how costly
	// the popular classes are.
	daemonRankSeed = 0x5eed
)

func daemonClasses() int { return len(daemonPatterns) * len(daemonTargets) * len(daemonUtils) }

// daemonClassSpec returns class c's base spec at back-pin fraction bp.
func daemonClassSpec(c int, bp float64) serve.FlowSpec {
	p := daemonPatterns[c%len(daemonPatterns)]
	c /= len(daemonPatterns)
	t := daemonTargets[c%len(daemonTargets)]
	c /= len(daemonTargets)
	return serve.FlowSpec{Front: p.Front, Back: p.Back, TargetGHz: t, Util: daemonUtils[c], BackPins: bp}
}

// daemonGen draws daemon-mix requests from one seeded stream.
type daemonGen struct {
	r       *rand.Rand
	rank    []int     // popularity rank -> class
	cdf     []float64 // Zipf CDF over ranks
	history []serve.FlowSpec
	pending []string // shapes left in the current block
}

func newDaemonGen(seed int64) *daemonGen {
	g := &daemonGen{r: newRand(seed, 0xd43)}
	n := daemonClasses()
	g.rank = newRand(daemonRankSeed, 0xd43).Perm(n)
	total := 0.0
	for k := 1; k <= n; k++ {
		total += 1 / math.Pow(float64(k), daemonZipfS)
		g.cdf = append(g.cdf, total)
	}
	for k := range g.cdf {
		g.cdf[k] /= total
	}
	return g
}

func (g *daemonGen) class() int {
	k, _ := slices.BinarySearch(g.cdf, g.r.Float64())
	return g.rank[min(k, len(g.rank)-1)]
}

// freshBP draws a back-pin fraction that is, in practice, new to the
// run, so the request misses the result memo.
func (g *daemonGen) freshBP() float64 { return round3(0.2 + 0.4*g.r.Float64()) }

// next draws one request.
func (g *daemonGen) next() daemonReq {
	if len(g.pending) == 0 {
		g.pending = slices.Clone(daemonBlock)
		g.r.Shuffle(len(g.pending), func(i, j int) { g.pending[i], g.pending[j] = g.pending[j], g.pending[i] })
	}
	shape := g.pending[0]
	g.pending = g.pending[1:]
	if shape == shapeFlowRepeat && len(g.history) == 0 {
		shape = shapeFlowNew
	}
	c := g.class()
	var req daemonReq
	var body any
	switch shape {
	case shapeFlowNew:
		req.Kind = kindFlow
		sp := daemonClassSpec(c, g.freshBP())
		g.history = append(g.history, sp)
		body = sp
	case shapeFlowRepeat:
		req.Kind = kindFlow
		body = g.history[g.r.IntN(len(g.history))]
	case shapeSweepBP:
		req.Kind = kindSweep
		body = serve.SweepRequest{Base: daemonClassSpec(c, 0), Axis: "back_pins",
			Values: []float64{g.freshBP(), g.freshBP()}}
	case shapeSweepTarget:
		req.Kind = kindSweep
		base := daemonClassSpec(c, g.freshBP())
		j := min(slices.Index(daemonTargets, base.TargetGHz), len(daemonTargets)-2)
		body = serve.SweepRequest{Base: base, Axis: "target_ghz",
			Values: slices.Clone(daemonTargets[j : j+2])}
	case shapeMC:
		req.Kind = kindMC
		body = serve.MCRequest{Base: daemonClassSpec(c, g.freshBP()),
			Samples: daemonMCSamples, Seed: 1 + g.r.Uint64N(1<<32)}
	}
	b, err := json.Marshal(body)
	if err != nil {
		panic(err) // the request types always marshal
	}
	req.Body = b
	return req
}

// genDaemonReqs draws n requests.
func genDaemonReqs(g *daemonGen, n int) []daemonReq {
	reqs := make([]daemonReq, n)
	for i := range reqs {
		reqs[i] = g.next()
	}
	return reqs
}
