package place

// This file keeps the global placer as it stood before the flat kernel:
// pointer-chasing attraction over Net → PinRef → *Instance, and rank
// orders from retained per-axis buckets sorted by comparator. It is the
// oracle TestGlobalMatchesReference holds GlobalCtx to, position for
// position. Only identifiers are renamed (ref prefix); the bodies are
// unchanged.

import (
	"cmp"
	"context"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/netlist"
)

// refGlobalCtx is Global under a context: cancellation is observed between
// refinement iterations and the pass is abandoned mid-placement (the
// netlist holds partial positions — callers must treat a cancelled
// placement as unusable).
func refGlobalCtx(ctx context.Context, nl *netlist.Netlist, fp *floorplan.Plan, opt Options) error {
	done := ctx.Done()
	rng := rand.New(rand.NewSource(opt.Seed))
	W, H := fp.Core.W(), fp.Core.H()
	for _, inst := range nl.Instances {
		if inst.Fixed {
			continue
		}
		inst.Pos = geom.Pt(rng.Int63n(W+1), rng.Int63n(H+1))
	}
	fp.PlaceIOPorts(nl)

	// One workspace shared by every pass of the whole placement: centroid
	// accumulators indexed by Instance.Seq (flat int64 slices instead of
	// the pointer-keyed maps that dominated allocation volume and GC time
	// of the whole flow), the movable-cell list every rankSpread pass
	// re-sorts, and the spread density grid with its per-bin cell lists —
	// all rebuilt in place instead of reallocated per pass.
	ws := newRefWorkspace(len(nl.Instances))
	ws.buildRanks(nl)
	ws.buildFootprints(nl, fp)
	for it := 0; it < opt.GlobalIters; it++ {
		if err := pollCtx(ctx, done); err != nil {
			return err
		}
		ws.attract(nl, fp, opt)
		ws.attract(nl, fp, opt)
		if it%2 == 1 || it == opt.GlobalIters-1 {
			ws.rankSpread(nl, fp)
		}
	}
	// Local density cleanup then a last pull.
	ws.spread(nl, fp, opt)
	ws.attract(nl, fp, opt)
	return nil
}

// rankSpread redistributes cells uniformly along each axis by rank,
// preserving relative order (Gordian-style linear scaling). It undoes the
// central collapse of pure attraction while keeping neighborhoods intact.
// The rank order comes from the workspace's retained axis buckets: only
// buckets whose membership or keys changed since the previous pass are
// re-sorted, and the (position, name) tiebreak compares precomputed
// integer name ranks, never strings. Both are bit-invisible: names are
// unique, so (position, nameRank) is the same total order as (position,
// Name), and the concatenated per-bucket orders equal the full sort.
func (ws *refWorkspace) rankSpread(nl *netlist.Netlist, fp *floorplan.Plan) {
	cells := ws.movableCells(nl)
	if len(cells) < 2 {
		return
	}
	W, H := fp.Core.W(), fp.Core.H()
	insts := nl.Instances
	n := int64(len(cells) - 1)
	for i, seq := range ws.rankOrder(&ws.bx, cells, W, true) {
		inst := insts[seq]
		x := int64(i) * W / n
		// Blend: 60% rank position, 40% attracted position.
		inst.Pos = geom.Pt((x*3+inst.Pos.X*2)/5, inst.Pos.Y)
	}
	for i, seq := range ws.rankOrder(&ws.by, cells, H, false) {
		inst := insts[seq]
		y := int64(i) * H / n
		inst.Pos = geom.Pt(inst.Pos.X, (y*3+inst.Pos.Y*2)/5)
	}
}

// refWorkspace holds every buffer the global-placement passes reuse:
// centroid accumulators indexed by Instance.Seq, per-net endpoint
// buffers, the movable-cell list, and the spread density grid. One
// workspace serves a whole Global call, so repeated passes allocate
// nothing.
type refWorkspace struct {
	sumX, sumY, cnt []int64
	pts             []geom.Point
	insts           []*netlist.Instance
	cells           []*netlist.Instance // movable cells, rebuilt in place per pass
	bins            []refDensityBin     // spread density grid, per-bin lists reused

	// nameRank[seq] is the instance's position in the Name-sorted order,
	// computed once per Global call. Every per-pass tiebreak that used to
	// compare Name strings compares these ints instead; names are unique,
	// so any (key, nameRank) order is exactly the (key, Name) order.
	nameRank []int32
	// baseW/baseA[seq] are the base-drive footprint width and area used by
	// the attraction and spread models, computed once per Global call.
	// Drive-independent by construction: resizing a cell to another drive
	// of the same base leaves both unchanged.
	baseW, baseA []int64
	// axisKey[seq] is the current rankSpread pass's coordinate on the axis
	// being ordered, snapshotted flat so bucket sorts read a contiguous
	// array instead of chasing instance pointers.
	axisKey []int64
	// bx, by are the retained per-axis rank-order buckets: rankSpread
	// re-sorts only buckets whose membership changed between passes.
	bx, by refAxisBuckets
}

func newRefWorkspace(n int) *refWorkspace {
	return &refWorkspace{
		sumX:     make([]int64, n),
		sumY:     make([]int64, n),
		cnt:      make([]int64, n),
		nameRank: make([]int32, n),
		axisKey:  make([]int64, n),
		baseW:    make([]int64, n),
		baseA:    make([]int64, n),
	}
}

// buildFootprints fills baseW/baseA with each instance's base-drive
// footprint: the lowest-drive library variant of the instance's Base cell.
// Hand-built cells outside a library (or netlists without one) fall back
// to their own sized footprint.
func (ws *refWorkspace) buildFootprints(nl *netlist.Netlist, fp *floorplan.Plan) {
	for _, inst := range nl.Instances {
		c := inst.Cell
		if nl.Lib != nil {
			if base := nl.Lib.PickDrive(c.Base, 1); base != nil {
				c = base
			}
		}
		ws.baseW[inst.Seq] = c.WidthNm(fp.Stack)
		ws.baseA[inst.Seq] = c.AreaNm2(fp.Stack)
	}
}

// endpoint is pinPoint over base-drive footprints: the attraction model's
// view of a net endpoint.
func (ws *refWorkspace) endpoint(ref netlist.PinRef, fp *floorplan.Plan) geom.Point {
	if ref.IsPort() {
		return ref.Port.Pos
	}
	inst := ref.Inst
	return geom.Pt(inst.Pos.X+ws.baseW[inst.Seq]/2, inst.Pos.Y+fp.Stack.CellHeightNm()/2)
}

// buildRanks fills nameRank with each instance's position in the
// Name-sorted order. One string sort per Global call replaces the string
// compares of every later spread/rankSpread tiebreak.
func (ws *refWorkspace) buildRanks(nl *netlist.Netlist) {
	insts := nl.Instances
	ord := make([]int32, len(insts))
	for i := range ord {
		ord[i] = int32(i)
	}
	slices.SortFunc(ord, func(a, b int32) int {
		return strings.Compare(insts[a].Name, insts[b].Name)
	})
	for i, seq := range ord {
		ws.nameRank[seq] = int32(i)
	}
}

// refAxisBuckets is the retained bucketed order of one rankSpread axis. Cells
// are binned by coordinate into equal-width buckets whose ranges partition
// the axis, so concatenating the per-bucket sorted runs yields the full
// (key, nameRank) order. Between passes the previous generation's
// membership, keys and sorted runs are kept: a bucket whose member list
// and keys are unchanged reuses its stored run verbatim, so a pass
// re-sorts only the buckets attraction actually disturbed.
type refAxisBuckets struct {
	start, members, sorted []int32
	keys                   []int64
	cursor                 []int32

	prevStart, prevMembers, prevSorted []int32
	prevKeys                           []int64
	valid                              bool
}

func refGrowI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func refGrowI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

// refAxisBucketOf maps a clamped coordinate to its bucket. Equal keys always
// land in the same bucket and the mapping is monotonic, so bucket ranges
// never split a run of equal keys across a sort boundary.
func refAxisBucketOf(k, span int64, nb int) int {
	if k < 0 {
		k = 0
	} else if k > span {
		k = span
	}
	return int(k * int64(nb) / (span + 1))
}

// rankOrder returns the movable cells as Instance.Seq values in ascending
// (axis coordinate, nameRank) order, reusing ab's retained buckets.
func (ws *refWorkspace) rankOrder(ab *refAxisBuckets, cells []*netlist.Instance, span int64, axisX bool) []int32 {
	n := len(cells)
	nb := n/48 + 1
	if nb > 256 {
		nb = 256
	}
	ab.start = refGrowI32(ab.start, nb+1)
	ab.members = refGrowI32(ab.members, n)
	ab.sorted = refGrowI32(ab.sorted, n)
	ab.keys = refGrowI64(ab.keys, n)
	ab.cursor = refGrowI32(ab.cursor, nb)
	for i := range ab.start {
		ab.start[i] = 0
	}
	key := ws.axisKey
	for _, inst := range cells {
		k := inst.Pos.X
		if !axisX {
			k = inst.Pos.Y
		}
		key[inst.Seq] = k
		ab.start[refAxisBucketOf(k, span, nb)+1]++
	}
	for b := 1; b <= nb; b++ {
		ab.start[b] += ab.start[b-1]
	}
	copy(ab.cursor, ab.start[:nb])
	// Fill members in instance order within each bucket: the deterministic
	// membership signature a clean-bucket check compares against.
	for _, inst := range cells {
		k := key[inst.Seq]
		b := refAxisBucketOf(k, span, nb)
		ab.members[ab.cursor[b]] = int32(inst.Seq)
		ab.keys[ab.cursor[b]] = k
		ab.cursor[b]++
	}
	rank := ws.nameRank
	for b := 0; b < nb; b++ {
		lo, hi := ab.start[b], ab.start[b+1]
		seg := ab.sorted[lo:hi]
		if ab.valid {
			plo, phi := ab.prevStart[b], ab.prevStart[b+1]
			if phi-plo == hi-lo &&
				slices.Equal(ab.prevMembers[plo:phi], ab.members[lo:hi]) &&
				slices.Equal(ab.prevKeys[plo:phi], ab.keys[lo:hi]) {
				copy(seg, ab.prevSorted[plo:phi])
				continue
			}
		}
		copy(seg, ab.members[lo:hi])
		slices.SortFunc(seg, func(a, c int32) int {
			if key[a] != key[c] {
				return cmp.Compare(key[a], key[c])
			}
			return cmp.Compare(rank[a], rank[c])
		})
	}
	out := ab.sorted[:n]
	// Retain this pass as the next pass's clean reference by swapping the
	// generations; the returned slice stays untouched until the next call.
	ab.start, ab.prevStart = ab.prevStart, ab.start
	ab.members, ab.prevMembers = ab.prevMembers, ab.members
	ab.keys, ab.prevKeys = ab.prevKeys, ab.keys
	ab.sorted, ab.prevSorted = ab.prevSorted, ab.sorted
	ab.valid = true
	return out
}

// movableCells rebuilds the reusable movable-cell list in instance order
// (the order every pass's sort starts from, so reuse is bit-invisible).
func (ws *refWorkspace) movableCells(nl *netlist.Netlist) []*netlist.Instance {
	cells := ws.cells[:0]
	for _, inst := range nl.Instances {
		if !inst.Fixed {
			cells = append(cells, inst)
		}
	}
	ws.cells = cells
	return cells
}

// attract moves each movable instance toward the centroid of everything
// it connects to.
func (ws *refWorkspace) attract(nl *netlist.Netlist, fp *floorplan.Plan, opt Options) {
	for i := range ws.cnt {
		ws.sumX[i] = 0
		ws.sumY[i] = 0
		ws.cnt[i] = 0
	}
	for _, n := range nl.Nets {
		if n.IsClock || n.Fanout() > opt.MaxAttractFanout {
			continue
		}
		pts := ws.pts[:0]
		insts := ws.insts[:0]
		if n.Driver != (netlist.PinRef{}) {
			pts = append(pts, ws.endpoint(n.Driver, fp))
			insts = append(insts, n.Driver.Inst)
		}
		for _, s := range n.Sinks {
			pts = append(pts, ws.endpoint(s, fp))
			insts = append(insts, s.Inst)
		}
		ws.pts, ws.insts = pts, insts
		// Each endpoint is pulled toward the centroid of the others.
		var cx, cy int64
		for _, p := range pts {
			cx += p.X
			cy += p.Y
		}
		n64 := int64(len(pts))
		for i, inst := range insts {
			if inst == nil || inst.Fixed {
				continue
			}
			// Centroid excluding self.
			ox := (cx - pts[i].X) / (n64 - 1 + refBoolTo64(n64 == 1))
			oy := (cy - pts[i].Y) / (n64 - 1 + refBoolTo64(n64 == 1))
			ws.sumX[inst.Seq] += ox
			ws.sumY[inst.Seq] += oy
			ws.cnt[inst.Seq]++
		}
	}
	for _, inst := range nl.Instances {
		if inst.Fixed || ws.cnt[inst.Seq] == 0 {
			continue
		}
		tx := ws.sumX[inst.Seq] / ws.cnt[inst.Seq]
		ty := ws.sumY[inst.Seq] / ws.cnt[inst.Seq]
		// Damped move.
		inst.Pos = geom.Pt(
			geom.Clamp64(inst.Pos.X+(tx-inst.Pos.X)*3/4, fp.Core.Lo.X, fp.Core.Hi.X),
			geom.Clamp64(inst.Pos.Y+(ty-inst.Pos.Y)*3/4, fp.Core.Lo.Y, fp.Core.Hi.Y),
		)
	}
}

func refBoolTo64(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// spread relieves overfull density bins by pushing cells toward the least
// loaded neighbor bin. The grid and its per-bin cell lists live in the
// workspace: reset in place each call, never reallocated.
func (ws *refWorkspace) spread(nl *netlist.Netlist, fp *floorplan.Plan, opt Options) {
	nb := opt.BinCount
	if nb < 4 {
		nb = 4
	}
	W, H := fp.Core.W(), fp.Core.H()
	binW := (W + int64(nb) - 1) / int64(nb)
	binH := (H + int64(nb) - 1) / int64(nb)
	if binW == 0 || binH == 0 {
		return
	}
	if cap(ws.bins) < nb*nb {
		ws.bins = make([]refDensityBin, nb*nb)
	}
	bins := ws.bins[:nb*nb]
	for i := range bins {
		bins[i].area = 0
		bins[i].cells = bins[i].cells[:0]
	}
	ws.bins = bins
	idx := func(p geom.Point) int {
		bx := int(geom.Clamp64(p.X/binW, 0, int64(nb-1)))
		by := int(geom.Clamp64(p.Y/binH, 0, int64(nb-1)))
		return by*nb + bx
	}
	for _, inst := range nl.Instances {
		if inst.Fixed {
			continue
		}
		i := idx(inst.Pos)
		bins[i].area += ws.baseA[inst.Seq]
		bins[i].cells = append(bins[i].cells, inst)
	}
	capArea := binW * binH // 100% local density budget
	for by := 0; by < nb; by++ {
		for bx := 0; bx < nb; bx++ {
			b := &bins[by*nb+bx]
			if b.area <= capArea {
				continue
			}
			// Push the overflow (cells beyond capacity) to the least-dense
			// of the 4 neighbors, deterministically. Ordering by the
			// precomputed name rank is the Name order without the string
			// compares.
			rank := ws.nameRank
			slices.SortFunc(b.cells, func(x, y *netlist.Instance) int {
				return cmp.Compare(rank[x.Seq], rank[y.Seq])
			})
			over := b.area - capArea
			for _, inst := range b.cells {
				if over <= 0 {
					break
				}
				tx, ty := refBestNeighbor(bins, nb, bx, by)
				nx := geom.Clamp64(int64(tx)*binW+binW/2, 0, W)
				ny := geom.Clamp64(int64(ty)*binH+binH/2, 0, H)
				inst.Pos = geom.Pt((inst.Pos.X+nx)/2, (inst.Pos.Y+ny)/2)
				over -= ws.baseA[inst.Seq]
			}
		}
	}
}

type refDensityBin struct {
	area  int64
	cells []*netlist.Instance
}

func refBestNeighbor(bins []refDensityBin, nb, bx, by int) (int, int) {
	bestA := int64(1) << 62
	tx, ty := bx, by
	for _, d := range [][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}, {1, 1}, {-1, -1}, {1, -1}, {-1, 1}} {
		x, y := bx+d[0], by+d[1]
		if x < 0 || y < 0 || x >= nb || y >= nb {
			continue
		}
		if a := bins[y*nb+x].area; a < bestA {
			bestA = a
			tx, ty = x, y
		}
	}
	return tx, ty
}
