// Package sweep is the one sweep pipeline behind the experiment suite
// (internal/exp) and the ffetd daemon (internal/serve): sharing keys, a
// pure planner that dedupes points and chains them along the synthesis
// target axis, a byte-budgeted checkpoint store of staged sessions, an
// entry-bounded result memo, and an executor that runs a plan through
// them. Every point it runs is bit-identical to a from-scratch flow of
// the same config; the sharing only saves work.
package sweep

import (
	"repro/internal/core"
	"repro/internal/place"
	"repro/internal/synth"
	"repro/internal/tech"
)

// RunKey is the comparable memo key of a flow run: the architecture and
// the entire FlowConfig (which is comparable) at full float precision,
// minus only the cosmetic Name, which no stage reads. Embedding the
// whole config means every result-affecting field — including MaxDRVs
// and the per-stage option structs — keeps distinct memo entries.
type RunKey struct {
	arch tech.Arch
	cfg  core.FlowConfig
}

// MemoKey builds the memo key of (arch, cfg): the exact-config identity
// under which a completed run may be replayed from cache.
func MemoKey(arch tech.Arch, cfg core.FlowConfig) RunKey {
	cfg.Name = ""
	return RunKey{arch: arch, cfg: cfg}
}

// chainKey is the key with the synthesis target zeroed: points sharing
// it differ only in their target and may chain through synth-diff forks.
func (k RunKey) chainKey() RunKey {
	k.cfg.TargetFreqGHz = 0
	k.cfg.Synth.TargetFreqGHz = 0
	return k
}

// SynthClass identifies the synthesis-input class of a run: two configs in
// the same class produce identical StageSynth output, so their sessions
// can fork off one shared root.
type SynthClass struct {
	arch   tech.Arch
	target float64
	synth  synth.Options
}

// PrefixClass identifies the placed prefix class: configs in the same
// class share everything through StagePlace. CTS options are deliberately
// not part of the key — a point whose CTS delta diverges from the
// prefix forks at StageCTS and re-legalizes only the buffer delta against
// the retained placement basis (place.LegalizeDelta), so CTS-option
// sweeps share one placed prefix instead of replaying placement per
// option. Points that also match the prefix's CTS diverge at
// StagePartition or later (back-pin fraction, routing, analysis knobs).
type PrefixClass struct {
	sk      SynthClass
	util    float64
	aspect  float64
	pattern tech.Pattern
	seed    int64
	place   place.Options
}

// ClassKeys computes both sharing classes of (arch, cfg). Both are
// comparable and usable as map keys; the checkpoint store keys its
// staged sessions by them.
func ClassKeys(arch tech.Arch, cfg core.FlowConfig) (SynthClass, PrefixClass) {
	sk := SynthClass{arch: arch, target: cfg.TargetFreqGHz, synth: cfg.Synth}
	return sk, PrefixClass{
		sk:      sk,
		util:    cfg.Utilization,
		aspect:  cfg.AspectRatio,
		pattern: cfg.Pattern,
		seed:    cfg.Seed,
		place:   cfg.Place,
	}
}

// rootConfig returns the neutralized config a synthesis-root session of
// this class is opened under: only the class fields (target frequency,
// synthesis options) are set, everything else is the default single-sided
// configuration. A root built under it is valid for every class member —
// its cached session can never depend on per-point fields like Pattern
// or BackPinFraction, so one invalid point cannot poison its class.
func (sc SynthClass) rootConfig() core.FlowConfig {
	cfg := core.DefaultFlowConfig(tech.Pattern{Front: 1}, sc.target, 0.70)
	cfg.Synth = sc.synth
	return cfg
}

// config returns the neutralized config of this class's
// placed-and-clocked prefix: every field the prefix stages read
// (synthesis class, pattern, utilization, aspect, seed, placement
// options) comes from the class; the point-divergent fields stay at
// defaults (BackPinFraction 0, default CTS/route/analysis options). A
// prefix staged under it through StageCTS is a valid fork base for any
// class member and is identical no matter which request arrived first,
// which is what a cross-request checkpoint store needs.
func (pc PrefixClass) config() core.FlowConfig {
	cfg := core.DefaultFlowConfig(pc.pattern, pc.sk.target, pc.util)
	cfg.Synth = pc.sk.synth
	cfg.AspectRatio = pc.aspect
	cfg.Seed = pc.seed
	cfg.Place = pc.place
	return cfg
}

// DiffChainMaxRelGap bounds the relative target gap between neighboring
// sweep points worth attempting a synth-diff hop across. Past it the
// resized fraction (and with it the floorplan) almost always diverges, so
// the attempt would serialize the two points for nothing: points further
// apart run as independent chains in parallel. Tunable; see ROADMAP
// ("diff-size threshold tuning").
var DiffChainMaxRelGap = 0.12
