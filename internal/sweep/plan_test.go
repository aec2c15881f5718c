package sweep

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/tech"
)

// pt builds an FFET FM6BM6 point at the given target and back-pin
// fraction.
func pt(name string, target, bp float64) Point {
	cfg := core.DefaultFlowConfig(tech.Pattern{Front: 6, Back: 6}, target, 0.7)
	cfg.BackPinFraction = bp
	cfg.Name = name
	return Point{Arch: tech.FFET, Cfg: cfg}
}

// chainsOf renders a plan's chains order-independently: each chain as
// its targets/back-pin fractions in chain order, the chains sorted.
func chainsOf(p *Plan) []string {
	var out []string
	for _, c := range p.Chains {
		var parts []string
		for _, i := range c {
			cfg := p.Uniques[i].Cfg
			parts = append(parts, fmt.Sprintf("%g/%g", cfg.TargetFreqGHz, cfg.BackPinFraction))
		}
		out = append(out, strings.Join(parts, " "))
	}
	slices.Sort(out)
	return out
}

// checkCoverage asserts every input slot is filled by exactly one unique
// run and every unique run sits in exactly one chain.
func checkCoverage(t *testing.T, p *Plan, n int) {
	t.Helper()
	slots := make([]int, n)
	for _, u := range p.Uniques {
		for _, s := range u.Slots {
			slots[s]++
		}
	}
	chained := make([]int, len(p.Uniques))
	for _, c := range p.Chains {
		for _, i := range c {
			chained[i]++
		}
	}
	for i, c := range slots {
		if c != 1 {
			t.Errorf("slot %d filled %d times", i, c)
		}
	}
	for i, c := range chained {
		if c != 1 {
			t.Errorf("unique %d in %d chains", i, c)
		}
	}
}

// TestPlan pins the planner without running a flow: memo-key dedupe,
// the chain gap rule, non-positive targets, cosmetic names, and
// independence from input order.
func TestPlan(t *testing.T) {
	gap := DiffChainMaxRelGap
	cases := []struct {
		name    string
		pts     []Point
		uniques int
		chains  []string
	}{
		{
			name:    "duplicate memo keys collapse",
			pts:     []Point{pt("a", 1.5, 0.5), pt("b", 1.5, 0.3), pt("a", 1.5, 0.5)},
			uniques: 2,
			chains:  []string{"1.5/0.3", "1.5/0.5"},
		},
		{
			name:    "gap within bound stays chained",
			pts:     []Point{pt("", 2*(1+gap*0.9), 0.5), pt("", 2, 0.5)},
			uniques: 2,
			chains:  []string{fmt.Sprintf("2/0.5 %g/0.5", 2*(1+gap*0.9))},
		},
		{
			name:    "larger gap splits",
			pts:     []Point{pt("", 2, 0.5), pt("", 2*(1+gap*1.1), 0.5), pt("", 2*(1+gap*1.1)*1.01, 0.5)},
			uniques: 3,
			chains:  []string{"2/0.5", fmt.Sprintf("%g/0.5 %g/0.5", 2*(1+gap*1.1), 2*(1+gap*1.1)*1.01)},
		},
		{
			name:    "non-positive target starts a new chain",
			pts:     []Point{pt("", 0, 0.5), pt("", 0.001, 0.5), pt("", -1, 0.5)},
			uniques: 3,
			chains:  []string{"-1/0.5", "0.001/0.5", "0/0.5"},
		},
		{
			name:    "names do not split chains",
			pts:     []Point{pt("x", 1.5, 0.5), pt("y", 1.51, 0.5), pt("z", 1.5, 0.5)},
			uniques: 2,
			chains:  []string{"1.5/0.5 1.51/0.5"},
		},
		{
			name:    "other axes never chain",
			pts:     []Point{pt("", 1.5, 0.5), pt("", 1.51, 0.3)},
			uniques: 2,
			chains:  []string{"1.5/0.5", "1.51/0.3"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			slices.Sort(tc.chains)
			p := NewPlan(tc.pts)
			checkCoverage(t, p, len(tc.pts))
			if len(p.Uniques) != tc.uniques {
				t.Fatalf("%d unique runs, want %d", len(p.Uniques), tc.uniques)
			}
			if got := chainsOf(p); !slices.Equal(got, tc.chains) {
				t.Fatalf("chains %q, want %q", got, tc.chains)
			}
			// A permuted input yields the same chains.
			rev := slices.Clone(tc.pts)
			slices.Reverse(rev)
			if got := chainsOf(NewPlan(rev)); !slices.Equal(got, tc.chains) {
				t.Fatalf("reversed input: chains %q, want %q", got, tc.chains)
			}
		})
	}

	// A duplicate fills both of its slots from one run.
	p := NewPlan(cases[0].pts)
	if got := p.Uniques[0].Slots; !slices.Equal(got, []int{0, 2}) {
		t.Fatalf("duplicate slots %v, want [0 2]", got)
	}
}
