// Retained placement state for incremental re-legalization.
//
// The staged flow re-runs legalization + refinement at StageCTS for every
// forked sweep point, even though CTS only appends a few dozen clock
// buffers to a placement of thousands of cells. A LegalBasis records the
// full greedy legalization of the base (pre-CTS) cells — per-row free
// intervals and each cell's chosen slot — so LegalizeDelta can replay it:
// moved/new cells are placed by the real probe, unaffected base cells
// reuse their recorded slots, and a per-row dirty-interval set tracks
// exactly where the replayed fold could deviate from the recording. The
// skip conditions are proven conservative (any cell whose decision could
// change is re-probed through the same placeOne procedure the full path
// uses), CheckLegal gates every delta result, and any doubt falls back to
// full Legalize — mirroring the sta.ReanalyzeStateCtx fallback contract,
// so the delta path is bit-identical to the full path by construction.
package place

import (
	"errors"
	"math"
	"slices"
	"sync"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/netlist"
)

// ErrBasisMismatch reports that a retained basis does not describe the
// netlist handed to LegalizeDelta (positions drifted, the floorplan
// changed, or the delta fold could not be proven equivalent). Callers
// fall back to full Legalize, which reproduces the from-scratch result —
// including its failure message — exactly.
var ErrBasisMismatch = errors.New("place: legalization basis mismatch")

// legalRec is one recorded legalization decision.
type legalRec struct {
	x    int64 // chosen site-aligned X
	cost int64 // winning total cost (X displacement + row penalty)
	row  int32 // chosen row index
	wnd  int8  // index into legalWindows of the window that succeeded
}

// LegalBasis is the retained legalization state of a base placement:
// the pristine per-row free intervals and the recorded fold over the base
// movable cells in legalization order. It is immutable once built, so
// forked flow sessions share one basis concurrently.
type LegalBasis struct {
	nInst     int
	nRows     int
	rowH, cpp int64
	initFree  [][]geom.Interval
	order     []int32 // base movable cells, legalization order (Instance.Seq)
	px, py    []int64 // basis position per order entry
	w         []int64 // cell width (nm) per order entry
	wcpp      []int32 // cell width (CPP) per order entry, for the order key
	rec       []legalRec
}

// NumBaseInstances returns the instance count of the basis netlist; cells
// with Seq at or beyond it were appended after the basis was built.
func (b *LegalBasis) NumBaseInstances() int { return b.nInst }

// DivergedWidthSeqs returns the Seqs of base cells whose current width no
// longer matches the recording — cells resized since the basis was built
// (a synth-diff fork re-stamping a neighbor's basis over a re-sized
// netlist). Such cells must be declared moved to LegalizeDelta: their
// recorded slot no longer fits them, so they are re-probed fresh like
// appended cells, and the unmoved-width verification never trips.
func (b *LegalBasis) DivergedWidthSeqs(nl *netlist.Netlist, fp *floorplan.Plan) []int32 {
	var out []int32
	insts := nl.Instances
	for i, seq := range b.order {
		if int(seq) < len(insts) && insts[seq].Cell.WidthNm(fp.Stack) != b.w[i] {
			out = append(out, seq)
		}
	}
	return out
}

// NewLegalBasis records the legalization of nl's movable cells at their
// current (post-global-placement) positions without committing any
// position. Returns nil when the base placement itself cannot be
// legalized — callers then run full Legalize and surface its failure.
func NewLegalBasis(nl *netlist.Netlist, fp *floorplan.Plan, blockages map[int][]geom.Interval) *LegalBasis {
	cpp := fp.Stack.CPPNm
	rowH := fp.Stack.CellHeightNm()
	nRows := len(fp.Rows)
	free := buildFreeLists(fp, blockages)
	cells := legalOrder(nl)
	b := &LegalBasis{
		nInst:    len(nl.Instances),
		nRows:    nRows,
		rowH:     rowH,
		cpp:      cpp,
		initFree: cloneFree(free),
		order:    make([]int32, 0, len(cells)),
		px:       make([]int64, 0, len(cells)),
		py:       make([]int64, 0, len(cells)),
		w:        make([]int64, 0, len(cells)),
		wcpp:     make([]int32, 0, len(cells)),
		rec:      make([]legalRec, 0, len(cells)),
	}
	for _, inst := range cells {
		w := inst.Cell.WidthNm(fp.Stack)
		targetRow := int(geom.Clamp64(inst.Pos.Y/rowH, 0, int64(nRows-1)))
		row, x, cost, wnd, ok := placeOne(free, nRows, rowH, cpp, targetRow, inst.Pos.X, w)
		if !ok {
			return nil
		}
		take(&free[row], x, w)
		b.order = append(b.order, int32(inst.Seq))
		b.px = append(b.px, inst.Pos.X)
		b.py = append(b.py, inst.Pos.Y)
		b.w = append(b.w, w)
		b.wcpp = append(b.wcpp, int32(inst.Cell.WidthCPP))
		b.rec = append(b.rec, legalRec{x: x, cost: cost, row: int32(row), wnd: int8(wnd)})
	}
	return b
}

// cloneFree deep-copies per-row free lists into one arena. Each row is
// capacity-limited so a later in-place splice reallocates instead of
// clobbering its neighbor.
func cloneFree(src [][]geom.Interval) [][]geom.Interval {
	total := 0
	for _, r := range src {
		total += len(r)
	}
	arena := make([]geom.Interval, total)
	out := make([][]geom.Interval, len(src))
	off := 0
	for i, r := range src {
		seg := arena[off : off+len(r) : off+len(r)]
		copy(seg, r)
		out[i] = seg
		off += len(r)
	}
	return out
}

// deltaScratch holds LegalizeDelta's per-call working state. A
// fork-heavy sweep runs one delta legalization per point, and recycling
// the backing arrays (free-list clone, dirty marks, rollback log)
// through a pool removes ~0.5MB of allocation per point. Nothing in the
// scratch escapes the call, and concurrent forks each take their own.
type deltaScratch struct {
	movedF    []bool
	savedSeq  []int32
	savedPos  []geom.Point
	free      [][]geom.Interval
	freeArena []geom.Interval
	takenD    [][]geom.Interval
	freedD    [][]geom.Interval
	takenHull []geom.Interval
	freedHull []geom.Interval
	mv        []*netlist.Instance
}

var deltaPool = sync.Pool{New: func() any { return new(deltaScratch) }}

// grownRows returns rows resized to n sub-slices, each reset to length
// zero but keeping whatever capacity earlier uses grew.
func grownRows(rows [][]geom.Interval, n int) [][]geom.Interval {
	if cap(rows) < n {
		return make([][]geom.Interval, n)
	}
	rows = rows[:n]
	for i := range rows {
		rows[i] = rows[i][:0]
	}
	return rows
}

// dirtySlotDist returns the smallest X displacement from tx of any
// width-w slot whose span could intersect the dirty interval iv (the
// closed hull is used, which is conservative).
func dirtySlotDist(tx int64, iv geom.Interval, w int64) int64 {
	lo, hi := iv.Lo-w, iv.Hi
	if tx < lo {
		return lo - tx
	}
	if tx > hi {
		return tx - hi
	}
	return 0
}

// liveFit mirrors probe's per-interval candidate selection: the slot a
// width-w probe targeting tx would pick inside the free piece f, or
// ok=false when f cannot host w.
func liveFit(f geom.Interval, tx, w, cpp int64) (x, dist int64, ok bool) {
	lo := geom.SnapDown(f.Lo+cpp-1, 0, cpp)
	hi := f.Hi - w
	if hi < lo {
		return 0, 0, false
	}
	x = geom.SnapDown(geom.Clamp64(tx, lo, hi), 0, cpp)
	if x < lo {
		x = lo
	}
	return x, geom.Abs64(x - tx), true
}

// pieceEndingAt returns the free piece whose Hi equals x, if any. Free
// lists are sorted and disjoint, so Hi is monotone and a binary search
// applies.
func pieceEndingAt(fr []geom.Interval, x int64) (geom.Interval, bool) {
	lo, hi := 0, len(fr)
	for lo < hi {
		mid := (lo + hi) / 2
		if fr[mid].Hi < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(fr) && fr[lo].Hi == x {
		return fr[lo], true
	}
	return geom.Interval{}, false
}

// pieceIndexFrom returns the index of the first free piece with Hi > x.
func pieceIndexFrom(fr []geom.Interval, x int64) int {
	lo, hi := 0, len(fr)
	for lo < hi {
		mid := (lo + hi) / 2
		if fr[mid].Hi <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// canSkip reports whether a recorded decision provably survives the dirty
// intervals accumulated so far — in which case the true fold at this
// position would probe the same candidates and pick the same slot.
//
// The two dirt kinds are asymmetric. TAKEN intervals (space the recording
// thought free that an earlier fold step occupied) can only remove probe
// candidates or shift a piece's clamp point onto the occupation's edges:
// best-so-far during a replay scan is otherwise pointwise no better than
// the recording's, so breaks happen no earlier, the recorded winner —
// which displaced its predecessor under placeOne's strict-improvement
// rule — still wins once its row is reached, and occupation can never
// create a fit in a window that failed during recording. Taken dirt
// therefore matters when it overlaps the winner's own slot, or when the
// far-side edge it exposes (marks are grid-aligned, so only the edge
// across the target from the piece is a genuinely new clamp point) would
// offer a candidate at cost ≤ rec.cost — confirmed against the live free
// list, since the edge candidate only exists if an adjacent piece
// actually ends at the mark and can host w.
//
// FREED intervals (space the recording thought occupied that is now
// free) can create better candidates and new fits in failed windows, but
// only inside live pieces overlapping the freed span's influence zone
// [Lo-w, Hi] — any new fit window must intersect the freed space, or it
// would have existed during recording. Rows inside a window that FAILED
// during recording (every window before rec.wnd) refuse on any such
// piece that fits w at all; rows inside the window that succeeded refuse
// when the piece's probe candidate costs ≤ rec.cost — a tie (≤) must
// refuse to preserve probe tie-breaking.
// Per-row hulls of the dirty marks (empty = Lo > Hi sentinel) screen
// whole rows in O(1): every mark-derived candidate lies inside the
// hull's influence zone, so a hull too far from the target admits no
// refusal and the mark scan is skipped.
func canSkip(live, freed, taken [][]geom.Interval, freedHull, takenHull []geom.Interval, rec legalRec, nRows int, rowH, cpp int64, targetRow int, tx, w int64) bool {
	for _, iv := range taken[rec.row] {
		if iv.Lo < rec.x+w && iv.Hi > rec.x {
			return false
		}
	}
	cleanRadius := -1
	if rec.wnd > 0 {
		cleanRadius = legalWindows[rec.wnd-1]
	}
	maxD := legalWindows[rec.wnd]
	if maxD < 0 {
		maxD = nRows
	}
	for d := 0; d <= maxD; d++ {
		penalty := int64(d) * rowH
		if d > cleanRadius && penalty > rec.cost {
			// Beyond the clean windows, any freed candidate already costs
			// more than the recorded winner from row distance alone; a
			// taken split's edge candidates cost even more (they sit at
			// the boundary of removed space, never nearer the target than
			// the interval they split).
			break
		}
		for _, ri := range [2]int{targetRow - d, targetRow + d} {
			if ri < 0 || ri >= nRows || (d == 0 && ri != targetRow) {
				continue
			}
			if h := takenHull[ri]; penalty <= rec.cost &&
				h.Lo <= h.Hi && h.Lo-w <= tx+(rec.cost-penalty) && h.Hi >= tx-(rec.cost-penalty) {
				for _, iv := range taken[ri] {
					if edLo := tx - (iv.Lo - w); edLo > 0 && edLo+penalty <= rec.cost {
						if p, ok := pieceEndingAt(live[ri], iv.Lo); ok {
							if _, _, fits := liveFit(p, tx, w, cpp); fits {
								return false
							}
						}
					}
					if edHi := iv.Hi - tx; edHi > 0 && edHi+penalty <= rec.cost {
						fr := live[ri]
						if j := pieceIndexFrom(fr, iv.Hi); j < len(fr) && fr[j].Lo == iv.Hi {
							if _, _, fits := liveFit(fr[j], tx, w, cpp); fits {
								return false
							}
						}
					}
				}
			}
			if h := freedHull[ri]; h.Lo > h.Hi ||
				(d > cleanRadius && dirtySlotDist(tx, h, w)+penalty > rec.cost+cpp) {
				continue
			}
			for _, iv := range freed[ri] {
				// The +cpp margin keeps the screen sound for the
				// winner-piece hazard below: an off-grid piece boundary
				// (blockage or core edge) puts the snapped clamp point up
				// to cpp-1 past the freed span's hull.
				if d > cleanRadius && dirtySlotDist(tx, iv, w)+penalty > rec.cost+cpp {
					continue
				}
				fr := live[ri]
				for j := pieceIndexFrom(fr, iv.Lo-w); j < len(fr) && fr[j].Lo <= iv.Hi; j++ {
					x, dist, fits := liveFit(fr[j], tx, w, cpp)
					if !fits {
						continue
					}
					if d <= cleanRadius || dist+penalty <= rec.cost {
						return false
					}
					// probe yields ONE candidate per piece: a merge that
					// grew the winner's own piece can move its clamp
					// point off the recorded slot even though the slot
					// itself is still free.
					if int32(ri) == rec.row && fr[j].Lo <= rec.x && rec.x+w <= fr[j].Hi && x != rec.x {
						return false
					}
				}
			}
		}
	}
	return true
}

// LegalizeDelta re-legalizes nl against a retained basis: every cell in
// moved (plus every cell appended after the basis was built, which must
// be listed in moved) is placed by the real probe; base cells whose
// recorded decision provably still holds reuse it without probing. The
// result is bit-identical to full Legalize on the same netlist — gated by
// a CheckLegal oracle — or the placement is rolled back and
// ErrBasisMismatch returned so the caller can run full Legalize.
func LegalizeDelta(nl *netlist.Netlist, fp *floorplan.Plan, blockages map[int][]geom.Interval, basis *LegalBasis, moved []*netlist.Instance) error {
	if basis == nil {
		return ErrBasisMismatch
	}
	cpp := fp.Stack.CPPNm
	rowH := fp.Stack.CellHeightNm()
	nRows := len(fp.Rows)
	insts := nl.Instances
	if basis.nRows != nRows || basis.rowH != rowH || basis.cpp != cpp || len(insts) < basis.nInst {
		return ErrBasisMismatch
	}
	scr := deltaPool.Get().(*deltaScratch)
	defer func() {
		clear(scr.mv[:cap(scr.mv)]) // drop instance pointers so the pool retains no netlist
		deltaPool.Put(scr)
	}()
	if cap(scr.movedF) < len(insts) {
		scr.movedF = make([]bool, len(insts))
	} else {
		scr.movedF = scr.movedF[:len(insts)]
		clear(scr.movedF)
	}
	movedF := scr.movedF
	for _, m := range moved {
		if m.Fixed {
			return ErrBasisMismatch
		}
		movedF[m.Seq] = true
	}
	// Verify the basis describes this netlist: the base movable set and
	// the recorded order must coincide, and every unmoved base cell must
	// still sit at its basis position. Appended cells must all be declared
	// moved (they have no recording).
	movableBase := 0
	for _, inst := range insts[:basis.nInst] {
		if !inst.Fixed {
			movableBase++
		}
	}
	if movableBase != len(basis.order) {
		return ErrBasisMismatch
	}
	for i, seq := range basis.order {
		inst := insts[seq]
		if inst.Fixed {
			return ErrBasisMismatch
		}
		if movedF[seq] {
			continue
		}
		if inst.Pos.X != basis.px[i] || inst.Pos.Y != basis.py[i] || inst.Cell.WidthNm(fp.Stack) != basis.w[i] {
			return ErrBasisMismatch
		}
	}
	for _, inst := range insts[basis.nInst:] {
		if !inst.Fixed && !movedF[inst.Seq] {
			return ErrBasisMismatch
		}
	}

	// Roll-back state: the delta fold mutates positions as it goes, so a
	// late mismatch must restore every movable cell before falling back.
	savedSeq := scr.savedSeq[:0]
	savedPos := scr.savedPos[:0]
	for _, inst := range insts {
		if !inst.Fixed {
			savedSeq = append(savedSeq, int32(inst.Seq))
			savedPos = append(savedPos, inst.Pos)
		}
	}
	scr.savedSeq, scr.savedPos = savedSeq, savedPos
	rollback := func() {
		for i, seq := range savedSeq {
			insts[seq].Pos = savedPos[i]
		}
	}

	total := 0
	for _, r := range basis.initFree {
		total += len(r)
	}
	if cap(scr.freeArena) < total {
		scr.freeArena = make([]geom.Interval, total)
	}
	if cap(scr.free) < nRows {
		scr.free = make([][]geom.Interval, nRows)
	}
	arena, free := scr.freeArena[:total], scr.free[:nRows]
	off := 0
	for i, r := range basis.initFree {
		seg := arena[off : off+len(r) : off+len(r)]
		copy(seg, r)
		free[i] = seg
		off += len(r)
	}
	// Dirt is tracked by kind — see canSkip for why occupations and
	// vacations have different blast radii.
	takenD := grownRows(scr.takenD, nRows)
	freedD := grownRows(scr.freedD, nRows)
	if cap(scr.takenHull) < nRows {
		scr.takenHull = make([]geom.Interval, nRows)
		scr.freedHull = make([]geom.Interval, nRows)
	}
	takenHull, freedHull := scr.takenHull[:nRows], scr.freedHull[:nRows]
	for i := range takenHull {
		empty := geom.Interval{Lo: math.MaxInt64, Hi: math.MinInt64}
		takenHull[i], freedHull[i] = empty, empty
	}
	scr.takenD, scr.freedD = takenD, freedD
	markTaken := func(row int32, lo, hi int64) {
		takenD[row] = append(takenD[row], geom.Interval{Lo: lo, Hi: hi})
		takenHull[row] = geom.Interval{Lo: min(takenHull[row].Lo, lo), Hi: max(takenHull[row].Hi, hi)}
	}
	markFreed := func(row int32, lo, hi int64) {
		freedD[row] = append(freedD[row], geom.Interval{Lo: lo, Hi: hi})
		freedHull[row] = geom.Interval{Lo: min(freedHull[row].Lo, lo), Hi: max(freedHull[row].Hi, hi)}
	}
	mv := append(scr.mv[:0], moved...)
	scr.mv = mv
	slices.SortFunc(mv, legalCmp)

	// probeCommit runs the real decision procedure for one cell.
	probeCommit := func(inst *netlist.Instance) (int32, int64, bool) {
		w := inst.Cell.WidthNm(fp.Stack)
		targetRow := int(geom.Clamp64(inst.Pos.Y/rowH, 0, int64(nRows-1)))
		row, x, _, _, ok := placeOne(free, nRows, rowH, cpp, targetRow, inst.Pos.X, w)
		if !ok {
			return 0, 0, false
		}
		take(&free[row], x, w)
		inst.Pos = geom.Pt(x, fp.Rows[row].Y)
		return int32(row), x, true
	}

	// The merged fold: basis entries in recorded order, moved cells
	// interleaved by the same (X, width desc, Name) key full Legalize
	// sorts by. The keys are total orders (names are unique), so the merge
	// is exactly the full path's processing order.
	movedBefore := func(m *netlist.Instance, i int) bool {
		if m.Pos.X != basis.px[i] {
			return m.Pos.X < basis.px[i]
		}
		if int32(m.Cell.WidthCPP) != basis.wcpp[i] {
			return int32(m.Cell.WidthCPP) > basis.wcpp[i]
		}
		return m.Name < insts[basis.order[i]].Name
	}
	mi := 0
	for i, seq := range basis.order {
		for mi < len(mv) && movedBefore(mv[mi], i) {
			m := mv[mi]
			w := m.Cell.WidthNm(fp.Stack)
			row, x, ok := probeCommit(m)
			if !ok {
				rollback()
				return ErrBasisMismatch
			}
			markTaken(row, x, x+w)
			mi++
		}
		rec := basis.rec[i]
		if movedF[seq] {
			// The recorded slot is never taken in this fold: from here on
			// it is free space the recording did not see.
			markFreed(rec.row, rec.x, rec.x+basis.w[i])
			continue
		}
		inst := insts[seq]
		w := basis.w[i]
		targetRow := int(geom.Clamp64(basis.py[i]/rowH, 0, int64(nRows-1)))
		if canSkip(free, freedD, takenD, freedHull, takenHull, rec, nRows, rowH, cpp, targetRow, basis.px[i], w) {
			if !takeAt(&free[rec.row], rec.x, w) {
				rollback()
				return ErrBasisMismatch
			}
			inst.Pos = geom.Pt(rec.x, fp.Rows[rec.row].Y)
			continue
		}
		row, x, ok := probeCommit(inst)
		if !ok {
			rollback()
			return ErrBasisMismatch
		}
		if row != rec.row || x != rec.x {
			markTaken(row, x, x+w)
			markFreed(rec.row, rec.x, rec.x+w)
		}
	}
	for ; mi < len(mv); mi++ {
		m := mv[mi]
		w := m.Cell.WidthNm(fp.Stack)
		row, x, ok := probeCommit(m)
		if !ok {
			rollback()
			return ErrBasisMismatch
		}
		markTaken(row, x, x+w)
	}

	// Oracle: the delta fold must have produced a legal placement; any
	// violation means the equivalence argument was broken somewhere, and
	// the caller's full Legalize is the authority.
	if err := CheckLegal(nl, fp, blockages); err != nil {
		rollback()
		return ErrBasisMismatch
	}
	return nil
}

// RefineBasis retains the refinement endpoint collection of a base
// netlist so repeated refinements after small structural deltas (CTS
// buffer insertion) re-collect only the rewired instances. Immutable
// once built; forked flow sessions share one basis concurrently.
type RefineBasis struct {
	nInst  int
	refs   [][]int64
	widths []int64
}

// NewRefineBasis collects nl's refinement endpoints as a retained basis.
func NewRefineBasis(nl *netlist.Netlist, fp *floorplan.Plan) *RefineBasis {
	return &RefineBasis{
		nInst:  len(nl.Instances),
		refs:   CollectRefineRefs(nl),
		widths: InstWidths(nl, fp),
	}
}

// PatchedRefs returns a refs/widths view of nl — a netlist grown from the
// basis netlist by appended instances — for RefineRefsCtx: entries for
// the dirty seqs and for every appended instance are re-collected,
// everything else is shared with the basis. Reports false when nl cannot
// have grown from the basis netlist (fewer instances than the basis).
func (b *RefineBasis) PatchedRefs(nl *netlist.Netlist, fp *floorplan.Plan, dirty []int32) ([][]int64, []int64, bool) {
	n := len(nl.Instances)
	if n < b.nInst {
		return nil, nil, false
	}
	refs := make([][]int64, n)
	copy(refs, b.refs)
	widths := make([]int64, n)
	copy(widths, b.widths)
	// One pre-sized arena for the re-collected rows: dirty sets skew
	// toward leaf-net endpoints (fanout ≤ 24 each way), so size for that
	// and let append grow past the estimate in the rare overflow.
	arena := make([]int64, 0, 26*(len(dirty)+n-b.nInst))
	recollect := func(inst *netlist.Instance) {
		if inst.Fixed {
			refs[inst.Seq] = nil
			return
		}
		start := len(arena)
		arena = appendInstRefs(arena, inst)
		refs[inst.Seq] = arena[start:len(arena):len(arena)]
	}
	seen := make([]bool, n)
	for _, seq := range dirty {
		if int(seq) >= n || seen[seq] {
			continue
		}
		seen[seq] = true
		recollect(nl.Instances[seq])
		// Dirty cells may also have been resized since the basis (synth-diff
		// forks); re-read the width. Identical for pure rewires.
		widths[seq] = nl.Instances[seq].Cell.WidthNm(fp.Stack)
	}
	for seq := b.nInst; seq < n; seq++ {
		inst := nl.Instances[seq]
		if !seen[seq] {
			recollect(inst)
		}
		widths[seq] = inst.Cell.WidthNm(fp.Stack)
	}
	return refs, widths, true
}
