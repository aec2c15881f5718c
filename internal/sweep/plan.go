package sweep

import (
	"cmp"
	"slices"

	"repro/internal/core"
	"repro/internal/tech"
)

// Point is one requested flow run of a sweep.
type Point struct {
	Arch tech.Arch
	Cfg  core.FlowConfig
}

// Unique is one distinct run of a plan: the first point with its memo
// key, plus every input index (slot) the run's result fills.
type Unique struct {
	Point
	Key   RunKey
	Slots []int
}

// Plan is the execution shape of a sweep. Points are deduped by memo key
// into Uniques; Chains partitions the Uniques into frequency chains:
// runs equal up to the synthesis target, sorted by target, and split
// wherever consecutive targets sit further apart than DiffChainMaxRelGap
// (or the lower target is not positive). A chain runs sequentially, each
// hop diff-forking its completed predecessor; distinct chains run in
// parallel.
type Plan struct {
	Uniques []Unique
	Chains  [][]int // indices into Uniques, ascending target
	slots   int
}

// NewPlan plans pts. It runs no flows.
func NewPlan(pts []Point) *Plan {
	p := &Plan{slots: len(pts)}
	byKey := make(map[RunKey]int)
	for i, pt := range pts {
		k := MemoKey(pt.Arch, pt.Cfg)
		u, ok := byKey[k]
		if !ok {
			u = len(p.Uniques)
			byKey[k] = u
			p.Uniques = append(p.Uniques, Unique{Point: pt, Key: k})
		}
		p.Uniques[u].Slots = append(p.Uniques[u].Slots, i)
	}

	groups := make(map[RunKey][]int)
	var order []RunKey
	for i, u := range p.Uniques {
		ck := u.Key.chainKey()
		if _, ok := groups[ck]; !ok {
			order = append(order, ck)
		}
		groups[ck] = append(groups[ck], i)
	}
	target := func(i int) float64 { return p.Uniques[i].Cfg.TargetFreqGHz }
	for _, ck := range order {
		idxs := groups[ck]
		slices.SortFunc(idxs, func(a, b int) int {
			ca, cb := p.Uniques[a].Cfg, p.Uniques[b].Cfg
			return cmp.Or(cmp.Compare(ca.TargetFreqGHz, cb.TargetFreqGHz),
				cmp.Compare(ca.Synth.TargetFreqGHz, cb.Synth.TargetFreqGHz))
		})
		start := 0
		for j := 1; j <= len(idxs); j++ {
			if j < len(idxs) {
				lo := target(idxs[j-1])
				if lo > 0 && target(idxs[j])-lo <= DiffChainMaxRelGap*lo {
					continue
				}
			}
			p.Chains = append(p.Chains, idxs[start:j:j])
			start = j
		}
	}
	return p
}
