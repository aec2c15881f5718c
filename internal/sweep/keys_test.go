package sweep

import (
	"testing"

	"repro/internal/core"
	"repro/internal/tech"
)

// TestRunKeyPrecision guards the memo key against float collisions: two
// configs 1e-4 apart in utilization must occupy distinct memo entries.
func TestRunKeyPrecision(t *testing.T) {
	a := core.DefaultFlowConfig(tech.Pattern{Front: 6, Back: 6}, 1.5, 0.7000)
	b := core.DefaultFlowConfig(tech.Pattern{Front: 6, Back: 6}, 1.5, 0.7001)
	if MemoKey(tech.FFET, a) == MemoKey(tech.FFET, b) {
		t.Error("distinct utilizations collide on one memo key")
	}
	if MemoKey(tech.FFET, a) != MemoKey(tech.FFET, a) {
		t.Error("identical configs produce different keys")
	}
	if MemoKey(tech.FFET, a) == MemoKey(tech.CFET, a) {
		t.Error("arch not part of the key")
	}
	// Stage options and MaxDRVs change results, so they must be keyed.
	c := a
	c.CTS.MaxLeafFanout = 12
	if MemoKey(tech.FFET, a) == MemoKey(tech.FFET, c) {
		t.Error("CTS options not part of the key")
	}
	d := a
	d.MaxDRVs = 1
	if MemoKey(tech.FFET, a) == MemoKey(tech.FFET, d) {
		t.Error("MaxDRVs not part of the key")
	}
	// The cosmetic Name must not split memo entries.
	e := a
	e.Name = "renamed"
	if MemoKey(tech.FFET, a) != MemoKey(tech.FFET, e) {
		t.Error("Name must be excluded from the key")
	}
}
