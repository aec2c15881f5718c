// Package exp contains one runner per table and figure of the paper's
// evaluation (Section IV): workload setup, parameter sweep, baseline and a
// printer that emits the same rows/series the paper reports. The bench
// harness at the repository root and cmd/ffetexp both drive this package.
package exp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/riscv"
	"repro/internal/sweep"
	"repro/internal/tech"
)

// Scale selects sweep density and workload size. Quick keeps every
// experiment's structure but runs the reduced 16-register core on coarser
// sweeps so the whole suite fits in a test run; Full reproduces the
// paper's sweep resolution on the full RV32 core.
type Scale int

// Scales.
const (
	Quick Scale = iota
	Full
)

// Table is a printable experiment result.
type Table struct {
	ID     string // e.g. "fig09"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Print renders the table as aligned text.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cols []string) {
		parts := make([]string, len(cols))
		for i, c := range cols {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// CSV renders the table as RFC 4180 comma-separated text: cells containing
// commas, quotes, or line breaks are quoted, with embedded quotes doubled.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cols []string) {
		for i, c := range cols {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\r\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, `"`, `""`))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// Suite owns the libraries and benchmark netlists shared by experiments.
type Suite struct {
	Scale Scale
	FFET  *cell.Library
	CFET  *cell.Library
	// MaxParallel bounds how many sweep points run at once (the flow is
	// deterministic and data-race-free, so points are independent). 0
	// picks min(GOMAXPROCS, 12); 1 forces serial execution. Tables are
	// byte-identical at any setting — results land by sweep index, never
	// by completion order.
	MaxParallel int
	// DisablePrefixSharing forces every sweep point through a full
	// from-scratch flow instead of forking shared checkpoints. Sharing is
	// purely a work optimization — forked runs are bit-identical to
	// scratch runs — so this knob exists only for differential tests and
	// apples-to-apples benchmarking of the sharing itself.
	DisablePrefixSharing bool
	// Ctx, when non-nil, cancels in-flight sweeps: every flow session a
	// sweep starts runs under it, so a cancel drains the pool within one
	// stage per in-flight point and the cancelled points report
	// core.ErrCancelled in their error cells.
	Ctx    context.Context
	ffetNl *netlist.Netlist
	cfetNl *netlist.Netlist
	// memo holds completed results by exact config; exec runs sweeps
	// through the checkpoint store of synthesis roots and placed prefixes.
	memo *sweep.Memo[*core.FlowResult]
	exec *sweep.Executor
}

// Cache bounds of a suite: the result memo's entry count, and the
// checkpoint store budget of a batch suite (one sharing a daemon's store
// takes the daemon's budget instead).
const (
	memoEntries = 4096
	storeBytes  = 64 << 20
)

// CacheStats is a point-in-time snapshot of the suite's result memo and
// sharing counters.
type CacheStats struct {
	MemoHits         int64 `json:"memo_hits"`
	MemoMisses       int64 `json:"memo_misses"`
	MemoEntries      int   `json:"memo_entries"`
	SynthRootHits    int64 `json:"synth_root_hits"`
	SynthRootMisses  int64 `json:"synth_root_misses"`
	SynthRootEntries int   `json:"synth_root_entries"`
	// Frequency-chain counters: hops that took the synth-diff path off
	// their predecessor, hops whose diff attempt fell back to the full
	// pipeline, and chain heads forked off a placed prefix.
	DiffForks      int64 `json:"diff_forks"`
	DiffFallbacks  int64 `json:"diff_fallbacks"`
	FullSynthForks int64 `json:"full_synth_forks"`
}

// Stats snapshots the suite's cache counters.
func (s *Suite) Stats() CacheStats {
	m, x := s.memo.Stats(), s.exec.Stats()
	return CacheStats{
		MemoHits:         m.Hits,
		MemoMisses:       m.Misses,
		MemoEntries:      m.Entries,
		SynthRootHits:    x.RootHits,
		SynthRootMisses:  x.RootMisses,
		SynthRootEntries: s.exec.Store().Stats().Roots,
		DiffForks:        x.DiffForks,
		DiffFallbacks:    x.DiffFallbacks,
		FullSynthForks:   x.FullSynthForks,
	}
}

// NewSuite builds libraries and the RISC-V benchmark core for both archs.
func NewSuite(scale Scale) (*Suite, error) {
	return NewSuiteStore(scale, sweep.NewStore(storeBytes))
}

// NewSuiteStore is NewSuite over a caller-owned checkpoint store, so a
// long-running process can bound every retained checkpoint by one budget.
func NewSuiteStore(scale Scale, store *sweep.Store) (*Suite, error) {
	s := &Suite{
		Scale: scale,
		FFET:  cell.NewLibrary(tech.NewFFET()),
		CFET:  cell.NewLibrary(tech.NewCFET()),
	}
	regs := 32
	if scale == Quick {
		regs = 16
	}
	nlF, _, err := riscv.Generate(s.FFET, riscv.Config{Name: "rv32", Registers: regs})
	if err != nil {
		return nil, err
	}
	nlC, err := nlF.Remap(s.CFET)
	if err != nil {
		return nil, err
	}
	s.ffetNl, s.cfetNl = nlF, nlC
	s.initCaches(store)
	return s, nil
}

// initCaches attaches an empty memo and an executor over store.
func (s *Suite) initCaches(store *sweep.Store) {
	s.memo = sweep.NewMemo[*core.FlowResult](memoEntries)
	s.exec = sweep.NewExecutor(store, s.Netlist)
}

// Netlist returns the pre-synthesis netlist for an arch.
func (s *Suite) Netlist(arch tech.Arch) *netlist.Netlist {
	if arch == tech.FFET {
		return s.ffetNl
	}
	return s.cfetNl
}

// ctx returns the suite's sweep context.
func (s *Suite) ctx() context.Context {
	if s.Ctx != nil {
		return s.Ctx
	}
	return context.Background()
}

// Run executes (or recalls) one flow run: a one-point sweep.
func (s *Suite) Run(arch tech.Arch, cfg core.FlowConfig) (*core.FlowResult, error) {
	rs, err := s.runAll([]runSpec{{Arch: arch, Cfg: cfg}})
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// errorResult builds the failure placeholder a dead sweep point
// contributes to its table: an invalid result carrying the classified
// error. Placeholders are never memoized, so a retry after the fault
// clears gets a clean run.
func errorResult(spec runSpec, err error) *core.FlowResult {
	return &core.FlowResult{
		Config: spec.Cfg,
		Arch:   spec.Arch,
		Valid:  false,
		Reason: "error: " + err.Error(),
		Err:    err,
	}
}

// runSpec is one point of a sweep.
type runSpec = sweep.Point

// runAll runs specs through the sweep executor, preserving order, with at
// most maxParallel points in flight. Points that share a flow prefix do
// not recompute it (see package sweep), and forked runs are bit-identical
// to from-scratch runs, so tables are byte-identical to the unshared path
// at any parallelism.
//
// Failures are contained per point: a dead point (hard error, contained
// panic, cancellation) lands in the table as an errorResult placeholder
// while the other points, the checkpoint store, and the memo stay
// healthy. runAll still reports the damage — the returned error joins
// every distinct point error — but callers get the full table either
// way.
func (s *Suite) runAll(specs []runSpec) ([]*core.FlowResult, error) {
	sem := make(chan struct{}, s.maxParallel())
	rs := sweep.Execute(s.ctx(), s.exec, sweep.Job[*core.FlowResult]{
		Plan:    sweep.NewPlan(specs),
		Memo:    s.memo,
		Finish:  func(f *core.Flow) (*core.FlowResult, error) { return f.Result(), nil },
		Scratch: s.DisablePrefixSharing,
		Acquire: func(context.Context) error { sem <- struct{}{}; return nil },
		Release: func() { <-sem },
	})
	out := make([]*core.FlowResult, len(rs))
	var errs []error
	seen := make(map[error]bool)
	for i, r := range rs {
		out[i] = r.Value
		if r.Err != nil {
			out[i] = errorResult(specs[i], r.Err)
			if !seen[r.Err] {
				seen[r.Err] = true
				errs = append(errs, r.Err)
			}
		}
	}
	return out, errors.Join(errs...)
}

func (s *Suite) maxParallel() int {
	if s.MaxParallel > 0 {
		return s.MaxParallel
	}
	return max(min(runtime.GOMAXPROCS(0), 12), 1)
}

// utilSweep returns the utilization grid for max-util experiments.
func (s *Suite) utilSweep() []float64 {
	if s.Scale == Quick {
		return []float64{0.68, 0.72, 0.76, 0.80, 0.84, 0.86, 0.88}
	}
	return []float64{0.68, 0.70, 0.72, 0.74, 0.76, 0.78, 0.80, 0.82, 0.84, 0.86, 0.88, 0.90}
}

// freqSweep returns the synthesis-target grid (paper: 0.5 to 3 GHz).
func (s *Suite) freqSweep() []float64 {
	if s.Scale == Quick {
		return []float64{0.5, 1.0, 1.5, 2.0, 3.0}
	}
	return []float64{0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0}
}

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3s(v float64) string { return fmt.Sprintf("%.3f", v) }
func pc(v float64) string  { return fmt.Sprintf("%+.1f%%", v) }
