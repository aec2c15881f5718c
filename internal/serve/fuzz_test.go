package serve

import (
	"bytes"
	"testing"

	"repro/internal/sweep"
)

// FuzzSweepRequest drives raw bytes through the /v1/sweep request path
// up to the plan: strict decode, Points, Config, sweep.NewPlan. Nothing
// may panic, and every accepted request's plan must cover each point
// index exactly once.
func FuzzSweepRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var req SweepRequest
		if decodeStrict(bytes.NewReader(data), &req) != nil {
			return
		}
		pts, err := sweepPoints(req)
		if err != nil {
			return
		}
		p := sweep.NewPlan(pts)
		filled := make([]int, len(pts))
		chained := make([]int, len(p.Uniques))
		for _, c := range p.Chains {
			for _, u := range c {
				chained[u]++
				for _, i := range p.Uniques[u].Slots {
					filled[i]++
				}
			}
		}
		for u, n := range chained {
			if n != 1 {
				t.Fatalf("unique run %d in %d chains", u, n)
			}
		}
		for i, n := range filled {
			if n != 1 {
				t.Fatalf("point %d covered %d times", i, n)
			}
		}
	})
}
