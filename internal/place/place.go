// Package place implements standard-cell placement for the evaluation
// flow: a force-directed global placement with density spreading, followed
// by row legalization that honors the Power Tap Cell blockages from the
// powerplan. Legalization failure at high utilization is the "placement
// violations between standard cells and Power Tap Cells" mechanism that
// caps FFET utilization in the paper's Fig. 8(a).
package place

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/floorplan"
	"repro/internal/geom"
	"repro/internal/netlist"
)

// pollCtx returns ctx's error once it is cancelled, nil before. done is
// ctx.Done(), hoisted by the caller; a nil done (Background context)
// makes the check free.
func pollCtx(ctx context.Context, done <-chan struct{}) error {
	if done == nil {
		return nil
	}
	select {
	case <-done:
		return fmt.Errorf("place: cancelled: %w", ctx.Err())
	default:
		return nil
	}
}

// Options tunes placement.
type Options struct {
	Seed        int64
	GlobalIters int
	// BinCount is the density grid resolution per axis.
	BinCount int
	// MaxAttractFanout excludes huge nets (pre-CTS clock, reset) from the
	// attraction model.
	MaxAttractFanout int
}

// DefaultOptions returns flow defaults.
func DefaultOptions() Options {
	return Options{Seed: 1, GlobalIters: 24, BinCount: 28, MaxAttractFanout: 48}
}

// Result summarizes a placement.
type Result struct {
	HPWLNm    int64
	Rows      int
	Legalized int
}

// Place runs global placement and legalization in sequence. Blockages maps
// row index to blocked X intervals (tap cells + halos).
func Place(nl *netlist.Netlist, fp *floorplan.Plan, blockages map[int][]geom.Interval, opt Options) (*Result, error) {
	if opt.GlobalIters <= 0 {
		opt = DefaultOptions()
	}
	Global(nl, fp, opt)
	if err := Legalize(nl, fp, blockages); err != nil {
		return nil, err
	}
	Refine(nl, fp, blockages, 3)
	return &Result{
		HPWLNm:    HPWL(nl, fp),
		Rows:      len(fp.Rows),
		Legalized: len(nl.Instances),
	}, nil
}

// center returns the instance center for wirelength models.
func center(inst *netlist.Instance, fp *floorplan.Plan) geom.Point {
	w := inst.Cell.WidthNm(fp.Stack)
	return geom.Pt(inst.Pos.X+w/2, inst.Pos.Y+fp.Stack.CellHeightNm()/2)
}

// pinPoint returns a net endpoint position.
func pinPoint(ref netlist.PinRef, fp *floorplan.Plan) geom.Point {
	if ref.IsPort() {
		return ref.Port.Pos
	}
	return center(ref.Inst, fp)
}

// HPWL computes the total half-perimeter wirelength of all signal nets.
func HPWL(nl *netlist.Netlist, fp *floorplan.Plan) int64 {
	var total int64
	pts := make([]geom.Point, 0, 16)
	for _, n := range nl.Nets {
		pts = pts[:0]
		if n.Driver != (netlist.PinRef{}) {
			pts = append(pts, pinPoint(n.Driver, fp))
		}
		for _, s := range n.Sinks {
			pts = append(pts, pinPoint(s, fp))
		}
		total += geom.HPWL(pts)
	}
	return total
}

// Global computes rough overlapping positions: seeded scatter, then
// alternating attraction (move to connected centroid) and density
// spreading passes. Fixed instances are never moved.
//
// Global models every cell at its base-drive footprint (the lowest-drive
// variant of the same logical cell), not its sized footprint: rough
// placement only needs relative cell extents, and drive-independent
// footprints make the result a pure function of (topology, floorplan,
// seed). Frequency-sweep siblings whose synthesized netlists differ only
// in drive resizing therefore share bit-identical global placements,
// which is what lets core.Flow.ForkSynthDiff re-stamp a neighbor's
// placement instead of re-placing. Legalization and all downstream
// metrics (HPWL, refinement) still use exact sized widths.
func Global(nl *netlist.Netlist, fp *floorplan.Plan, opt Options) {
	// A Background context never cancels, so the error is unreachable.
	_ = GlobalCtx(context.Background(), nl, fp, opt)
}

// GlobalCtx is Global under a context: cancellation is observed between
// refinement iterations and the pass is abandoned mid-placement (the
// netlist holds the positions of the last completed iteration — callers
// must treat a cancelled placement as unusable).
func GlobalCtx(ctx context.Context, nl *netlist.Netlist, fp *floorplan.Plan, opt Options) error {
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

	// Connectivity, Fixed and port positions are static from here on, so
	// the kernel flattens them once. Every pass then runs over Seq-indexed
	// integer arrays, and Instance.Pos is written once, on return.
	g := newGlobalKernel(nl, fp, opt.MaxAttractFanout)
	defer g.store(nl.Instances)
	for it := 0; it < opt.GlobalIters; it++ {
		if err := pollCtx(ctx, done); err != nil {
			return err
		}
		g.attract()
		g.attract()
		if it%2 == 1 || it == opt.GlobalIters-1 {
			g.rankSpread()
		}
	}
	// Local density cleanup then a last pull.
	g.spread(opt.BinCount)
	g.attract()
	return nil
}

// radixBits is the digit width of rankOrder's LSD radix sort.
const (
	radixBits = 11
	radixMask = 1<<radixBits - 1
)

// globalKernel is the state of one Global call over flat arrays indexed
// by Instance.Seq. The attract and rankSpread passes only use buffers
// sized at construction, so they allocate nothing; the one spread pass
// per call builds its bin CSR.
//
// The model is integer arithmetic throughout, and integer sums do not
// depend on the order of their terms: flat loops over the same endpoints
// produce the same sums, so every quotient and position is exact.
type globalKernel struct {
	core geom.Rect
	// x, y are the instances' lower-left corners, the working copy of
	// Instance.Pos.
	x, y []int64
	// movable lists the movable Seqs in Name order. Names are unique, so
	// this is the tiebreak order of every rank and spread pass.
	movable []int32

	// The attraction nets (not clock, fanout ≤ MaxAttractFanout) as a CSR:
	// net k's endpoints are ep[start[k]:start[k+1]], driver first, then
	// sinks in order. ep[i] ≥ 0 is the Seq of a movable instance; ep[i] < 0
	// is ^j, a static endpoint (a port, or a fixed instance's center)
	// whose position is sx[j], sy[j].
	start  []int32
	ep     []int32
	sx, sy []int64
	// halfW is the base-drive half width by Seq and halfH half the cell
	// height: an instance endpoint sits at (x+halfW, y+halfH).
	halfW []int64
	halfH int64
	// cnt is each instance's endpoint count over the CSR, and pulled the
	// movable Seqs with cnt > 0: attraction moves exactly these.
	cnt        []int64
	pulled     []int32
	sumX, sumY []int64
	ex, ey     []int64 // one net's endpoint positions

	baseA []int64 // base-drive area by Seq, the spread model's footprint

	// ord/key and their twins are rankOrder's ping-pong radix buffers.
	ord, ordTmp []int32
	key, keyTmp []uint64
	count       [1 << radixBits]int32
}

func newGlobalKernel(nl *netlist.Netlist, fp *floorplan.Plan, maxFanout int) *globalKernel {
	insts := nl.Instances
	n := len(insts)
	g := &globalKernel{
		core:    fp.Core,
		x:       make([]int64, n),
		y:       make([]int64, n),
		movable: make([]int32, 0, n),
		halfW:   make([]int64, n),
		halfH:   fp.Stack.CellHeightNm() / 2,
		cnt:     make([]int64, n),
		sumX:    make([]int64, n),
		sumY:    make([]int64, n),
		baseA:   make([]int64, n),
	}
	for _, inst := range insts {
		s := inst.Seq
		g.x[s], g.y[s] = inst.Pos.X, inst.Pos.Y
		// The base-drive footprint: the lowest-drive library variant of the
		// instance's Base cell. Hand-built cells outside a library (or
		// netlists without one) keep their own sized footprint.
		c := inst.Cell
		if nl.Lib != nil {
			if base := nl.Lib.PickDrive(c.Base, 1); base != nil {
				c = base
			}
		}
		g.halfW[s] = c.WidthNm(fp.Stack) / 2
		g.baseA[s] = c.AreaNm2(fp.Stack)
		if !inst.Fixed {
			g.movable = append(g.movable, int32(s))
		}
	}
	slices.SortFunc(g.movable, func(a, b int32) int {
		return strings.Compare(insts[a].Name, insts[b].Name)
	})

	static := func(x, y int64) int32 {
		g.sx = append(g.sx, x)
		g.sy = append(g.sy, y)
		return ^int32(len(g.sx) - 1)
	}
	add := func(ref netlist.PinRef) {
		switch {
		case ref.IsPort():
			g.ep = append(g.ep, static(ref.Port.Pos.X, ref.Port.Pos.Y))
		case ref.Inst.Fixed:
			s := ref.Inst.Seq
			g.ep = append(g.ep, static(g.x[s]+g.halfW[s], g.y[s]+g.halfH))
		default:
			g.ep = append(g.ep, int32(ref.Inst.Seq))
			g.cnt[ref.Inst.Seq]++
		}
	}
	attracts := func(net *netlist.Net) bool { return !net.IsClock && net.Fanout() <= maxFanout }
	nNets, nEP := 0, 0
	for _, net := range nl.Nets {
		if attracts(net) {
			nNets++
			nEP += 1 + len(net.Sinks)
		}
	}
	g.start = append(make([]int32, 0, nNets+1), 0)
	g.ep = make([]int32, 0, nEP)
	maxDeg := 0
	for _, net := range nl.Nets {
		if !attracts(net) {
			continue
		}
		if net.Driver != (netlist.PinRef{}) {
			add(net.Driver)
		}
		for _, s := range net.Sinks {
			add(s)
		}
		if deg := len(g.ep) - int(g.start[len(g.start)-1]); deg > 0 {
			g.start = append(g.start, int32(len(g.ep)))
			maxDeg = max(maxDeg, deg)
		}
	}
	g.ex, g.ey = make([]int64, maxDeg), make([]int64, maxDeg)
	for _, inst := range insts {
		if !inst.Fixed && g.cnt[inst.Seq] > 0 {
			g.pulled = append(g.pulled, int32(inst.Seq))
		}
	}

	m := len(g.movable)
	g.ord, g.ordTmp = make([]int32, m), make([]int32, m)
	g.key, g.keyTmp = make([]uint64, m), make([]uint64, m)
	return g
}

// store writes the working positions back to the movable instances.
func (g *globalKernel) store(insts []*netlist.Instance) {
	for _, s := range g.movable {
		insts[s].Pos = geom.Pt(g.x[s], g.y[s])
	}
}

// attract moves each movable instance toward the centroid of everything
// it connects to: per net, each endpoint is pulled toward the centroid of
// the others, and each instance then takes a damped step toward the mean
// of its pulls. The centroid excluding self is (sum − own)/(deg − 1).
func (g *globalKernel) attract() {
	clear(g.sumX)
	clear(g.sumY)
	x, y, halfW, halfH := g.x, g.y, g.halfW, g.halfH
	for k := 1; k < len(g.start); k++ {
		eps := g.ep[g.start[k-1]:g.start[k]]
		ex, ey := g.ex[:len(eps)], g.ey[:len(eps)]
		var cx, cy int64
		for i, e := range eps {
			var px, py int64
			if e >= 0 {
				px, py = x[e]+halfW[e], y[e]+halfH
			} else {
				px, py = g.sx[^e], g.sy[^e]
			}
			ex[i], ey[i] = px, py
			cx += px
			cy += py
		}
		d := int64(max(len(eps)-1, 1))
		for i, e := range eps {
			if e >= 0 {
				g.sumX[e] += (cx - ex[i]) / d
				g.sumY[e] += (cy - ey[i]) / d
			}
		}
	}
	lo, hi := g.core.Lo, g.core.Hi
	for _, s := range g.pulled {
		tx := g.sumX[s] / g.cnt[s]
		ty := g.sumY[s] / g.cnt[s]
		// Damped move.
		x[s] = geom.Clamp64(x[s]+(tx-x[s])*3/4, lo.X, hi.X)
		y[s] = geom.Clamp64(y[s]+(ty-y[s])*3/4, lo.Y, hi.Y)
	}
}

// rankSpread redistributes cells uniformly along each axis by rank,
// preserving relative order (Gordian-style linear scaling). It undoes the
// central collapse of pure attraction while keeping neighborhoods intact.
func (g *globalKernel) rankSpread() {
	if len(g.movable) < 2 {
		return
	}
	W, H := g.core.W(), g.core.H()
	n := int64(len(g.movable) - 1)
	for i, s := range g.rankOrder(g.x) {
		v := int64(i) * W / n
		// Blend: 60% rank position, 40% attracted position.
		g.x[s] = (v*3 + g.x[s]*2) / 5
	}
	for i, s := range g.rankOrder(g.y) {
		v := int64(i) * H / n
		g.y[s] = (v*3 + g.y[s]*2) / 5
	}
}

// rankOrder returns the movable Seqs in ascending (coord, Name) order. It
// is an LSD radix sort on coord − min, radixBits per pass, starting from
// the Name order: every pass is stable, so after the pass on the top digit
// cells are ordered by coordinate, and equal coordinates keep Name order.
// The number of passes follows the coordinate span, so any span sorts
// exactly.
func (g *globalKernel) rankOrder(coord []int64) []int32 {
	lo, hi := coord[g.movable[0]], coord[g.movable[0]]
	for _, s := range g.movable {
		lo, hi = min(lo, coord[s]), max(hi, coord[s])
	}
	ord, key := g.ord, g.key
	for i, s := range g.movable {
		ord[i] = s
		// Two's-complement wrap keeps the difference exact as a uint64.
		key[i] = uint64(coord[s] - lo)
	}
	tmp, tmpKey := g.ordTmp, g.keyTmp
	hist := &g.count
	for shift, span := uint(0), uint64(hi-lo); span>>shift != 0; shift += radixBits {
		clear(hist[:])
		for _, k := range key {
			hist[k>>shift&radixMask]++
		}
		var sum int32
		for d, c := range hist {
			hist[d] = sum
			sum += c
		}
		for i, k := range key {
			d := k >> shift & radixMask
			tmp[hist[d]], tmpKey[hist[d]] = ord[i], k
			hist[d]++
		}
		ord, tmp = tmp, ord
		key, tmpKey = tmpKey, key
	}
	return ord
}

// spread relieves overfull density bins by pushing cells toward the least
// loaded neighbor bin. The bins are a CSR over the movable cells filled in
// Name order, so an overfull bin pushes its overflow out in Name order.
// Bin areas are the state before the pass: moves do not update them.
func (g *globalKernel) spread(binCount int) {
	nb := max(binCount, 4)
	W, H := g.core.W(), g.core.H()
	binW := (W + int64(nb) - 1) / int64(nb)
	binH := (H + int64(nb) - 1) / int64(nb)
	if binW == 0 || binH == 0 {
		return
	}
	area := make([]int64, nb*nb)
	start := make([]int32, nb*nb+1)
	binOf := make([]int32, len(g.movable))
	for i, s := range g.movable {
		bx := geom.Clamp64(g.x[s]/binW, 0, int64(nb-1))
		by := geom.Clamp64(g.y[s]/binH, 0, int64(nb-1))
		b := int(by)*nb + int(bx)
		binOf[i] = int32(b)
		area[b] += g.baseA[s]
		start[b+1]++
	}
	for b := 1; b <= nb*nb; b++ {
		start[b] += start[b-1]
	}
	members := make([]int32, len(g.movable))
	fill := slices.Clone(start[:nb*nb])
	for i, s := range g.movable {
		members[fill[binOf[i]]] = s
		fill[binOf[i]]++
	}
	capArea := binW * binH // 100% local density budget
	for by := 0; by < nb; by++ {
		for bx := 0; bx < nb; bx++ {
			b := by*nb + bx
			over := area[b] - capArea
			if over <= 0 {
				continue
			}
			// Push the overflow (cells beyond capacity) to the least-dense
			// of the 8 neighbors, deterministically.
			tx, ty := bestNeighbor(area, nb, bx, by)
			nx := geom.Clamp64(int64(tx)*binW+binW/2, 0, W)
			ny := geom.Clamp64(int64(ty)*binH+binH/2, 0, H)
			for _, s := range members[start[b]:start[b+1]] {
				if over <= 0 {
					break
				}
				g.x[s] = (g.x[s] + nx) / 2
				g.y[s] = (g.y[s] + ny) / 2
				over -= g.baseA[s]
			}
		}
	}
}

func bestNeighbor(area []int64, nb, bx, by int) (int, int) {
	bestA := int64(1) << 62
	tx, ty := bx, by
	for _, d := range [][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}, {1, 1}, {-1, -1}, {1, -1}, {-1, 1}} {
		x, y := bx+d[0], by+d[1]
		if x < 0 || y < 0 || x >= nb || y >= nb {
			continue
		}
		if a := area[y*nb+x]; a < bestA {
			bestA = a
			tx, ty = x, y
		}
	}
	return tx, ty
}

// buildFreeLists computes each row's free intervals after subtracting its
// blocked intervals (tap cells + halos).
func buildFreeLists(fp *floorplan.Plan, blockages map[int][]geom.Interval) [][]geom.Interval {
	free := make([][]geom.Interval, len(fp.Rows))
	for i, r := range fp.Rows {
		ivs := []geom.Interval{{Lo: r.X0, Hi: r.X1}}
		blocked := append([]geom.Interval(nil), blockages[i]...)
		slices.SortFunc(blocked, func(a, b geom.Interval) int { return cmp.Compare(a.Lo, b.Lo) })
		for _, b := range blocked {
			var next []geom.Interval
			for _, f := range ivs {
				if !f.Overlaps(b) {
					next = append(next, f)
					continue
				}
				if b.Lo > f.Lo {
					next = append(next, geom.Interval{Lo: f.Lo, Hi: b.Lo})
				}
				if b.Hi < f.Hi {
					next = append(next, geom.Interval{Lo: b.Hi, Hi: f.Hi})
				}
			}
			ivs = next
		}
		free[i] = ivs
	}
	return free
}

// legalCmp is the legalization processing order: wide cells first within
// global-X order bands for stability, names breaking the remaining ties.
func legalCmp(a, b *netlist.Instance) int {
	if a.Pos.X != b.Pos.X {
		return cmp.Compare(a.Pos.X, b.Pos.X)
	}
	if a.Cell.WidthCPP != b.Cell.WidthCPP {
		return cmp.Compare(b.Cell.WidthCPP, a.Cell.WidthCPP)
	}
	return strings.Compare(a.Name, b.Name)
}

// legalOrder returns the movable instances in legalization order.
func legalOrder(nl *netlist.Netlist) []*netlist.Instance {
	movable := make([]*netlist.Instance, 0, len(nl.Instances))
	for _, inst := range nl.Instances {
		if !inst.Fixed {
			movable = append(movable, inst)
		}
	}
	slices.SortFunc(movable, legalCmp)
	return movable
}

// legalWindows are the escalating row-search windows of placeOne: a full
// local row spills to a neighbor row instead of teleporting along its own
// row. The last window is replaced by the row count at probe time.
var legalWindows = [3]int{3, 8, -1}

// placeOne finds a cell's legal slot: it jointly minimizes X displacement
// and row distance over windows of increasing size, returning the chosen
// row/X, the winning total cost, and the index of the window that
// succeeded. It never commits — callers take the slot. Every legalization
// path (full, basis recording, delta) funnels through this one decision
// procedure, so their placements cannot diverge.
func placeOne(free [][]geom.Interval, nRows int, rowH, cpp int64, targetRow int, tx, w int64) (row int, x, cost int64, wnd int, ok bool) {
	for wi, window := range legalWindows {
		if window < 0 {
			window = nRows
		}
		bestCost := int64(1) << 62
		bestRow, bestX := -1, int64(0)
		for d := 0; d <= window; d++ {
			rowPenalty := int64(d) * rowH
			if rowPenalty >= bestCost {
				break
			}
			for _, ri := range [2]int{targetRow - d, targetRow + d} {
				if ri < 0 || ri >= nRows || (d == 0 && ri != targetRow) {
					continue
				}
				if px, pcost, pok := probe(free[ri], tx, w, cpp); pok {
					if total := pcost + rowPenalty; total < bestCost {
						bestCost = total
						bestRow, bestX = ri, px
					}
				}
			}
		}
		if bestRow >= 0 {
			return bestRow, bestX, bestCost, wi, true
		}
	}
	return 0, 0, 0, 0, false
}

// Legalize snaps every movable instance onto row sites without overlaps,
// avoiding blocked intervals. It fails when the design cannot be legalized
// (e.g. utilization above the tap-cell cap).
func Legalize(nl *netlist.Netlist, fp *floorplan.Plan, blockages map[int][]geom.Interval) error {
	cpp := fp.Stack.CPPNm
	rowH := fp.Stack.CellHeightNm()
	free := buildFreeLists(fp, blockages)
	for _, inst := range legalOrder(nl) {
		w := inst.Cell.WidthNm(fp.Stack)
		targetRow := int(geom.Clamp64(inst.Pos.Y/rowH, 0, int64(len(fp.Rows)-1)))
		row, x, _, _, ok := placeOne(free, len(fp.Rows), rowH, cpp, targetRow, inst.Pos.X, w)
		if !ok {
			return fmt.Errorf("place: cannot legalize %s (%d sites): placement violation",
				inst.Name, inst.Cell.WidthCPP)
		}
		take(&free[row], x, w)
		inst.Pos = geom.Pt(x, fp.Rows[row].Y)
	}
	return nil
}

// probe finds the best slot in a row's free list without committing.
func probe(free []geom.Interval, target, w, cpp int64) (int64, int64, bool) {
	bestCost := int64(1) << 62
	var bestX int64
	found := false
	for _, f := range free {
		lo := geom.SnapDown(f.Lo+cpp-1, 0, cpp)
		hi := f.Hi - w
		if hi < lo {
			continue
		}
		x := geom.Clamp64(target, lo, hi)
		x = geom.SnapDown(x, 0, cpp)
		if x < lo {
			x = lo
		}
		if cost := geom.Abs64(x - target); cost < bestCost {
			bestCost, bestX, found = cost, x, true
		}
	}
	return bestX, bestCost, found
}

// take commits a slot previously returned by probe, splicing the free
// list in place instead of rebuilding it.
func take(free *[]geom.Interval, x, w int64) {
	if !takeAt(free, x, w) {
		panic("place: take without matching probe")
	}
}

// takeAt is take reporting success instead of panicking: the delta
// legalizer uses it to detect (impossible by construction, but gated
// anyway) loss of a recorded slot and fall back to the full path.
func takeAt(free *[]geom.Interval, x, w int64) bool {
	f := *free
	for i := range f {
		iv := f[i]
		if x < iv.Lo || x+w > iv.Hi {
			continue
		}
		hasL := x > iv.Lo
		hasR := x+w < iv.Hi
		switch {
		case hasL && hasR:
			f[i] = geom.Interval{Lo: iv.Lo, Hi: x}
			*free = slices.Insert(f, i+1, geom.Interval{Lo: x + w, Hi: iv.Hi})
		case hasL:
			f[i] = geom.Interval{Lo: iv.Lo, Hi: x}
		case hasR:
			f[i] = geom.Interval{Lo: x + w, Hi: iv.Hi}
		default:
			*free = append(f[:i], f[i+1:]...)
		}
		return true
	}
	return false
}

// allocate finds a site-aligned slot of width w in the free list closest
// to target, removes it from the list, and returns its position.
func allocate(free *[]geom.Interval, target, w, cpp int64) (int64, bool) {
	bestCost := int64(1) << 62
	bestIdx := -1
	var bestX int64
	for i, f := range *free {
		lo := geom.SnapDown(f.Lo+cpp-1, 0, cpp) // first site boundary inside
		hi := f.Hi - w
		if hi < lo {
			continue
		}
		x := geom.Clamp64(target, lo, hi)
		x = geom.SnapDown(x, 0, cpp)
		if x < lo {
			x = lo
		}
		cost := geom.Abs64(x - target)
		if cost < bestCost {
			bestCost = cost
			bestIdx = i
			bestX = x
		}
	}
	if bestIdx < 0 {
		return 0, false
	}
	f := (*free)[bestIdx]
	var repl []geom.Interval
	if bestX > f.Lo {
		repl = append(repl, geom.Interval{Lo: f.Lo, Hi: bestX})
	}
	if bestX+w < f.Hi {
		repl = append(repl, geom.Interval{Lo: bestX + w, Hi: f.Hi})
	}
	out := append([]geom.Interval{}, (*free)[:bestIdx]...)
	out = append(out, repl...)
	out = append(out, (*free)[bestIdx+1:]...)
	*free = out
	return bestX, true
}

// CheckLegal verifies that no two instances overlap, that all instances
// sit on rows inside the core, and that no instance intersects a blockage.
func CheckLegal(nl *netlist.Netlist, fp *floorplan.Plan, blockages map[int][]geom.Interval) error {
	rowH := fp.Stack.CellHeightNm()
	nRows := len(fp.Rows)
	type span struct {
		lo, hi int64
		seq    int32
	}
	// Counting layout into one flat arena, rows as sub-slices: the check
	// runs once per delta legalization, so it avoids the per-row map and
	// string traffic of the naive bucketing (names resolve from Seq only
	// on the failure path).
	cnt := make([]int32, nRows+1)
	for _, inst := range nl.Instances {
		if inst.Fixed {
			continue
		}
		if inst.Pos.Y%rowH != 0 {
			return fmt.Errorf("place: %s not on a row (y=%d)", inst.Name, inst.Pos.Y)
		}
		ri := int(inst.Pos.Y / rowH)
		if ri < 0 || ri >= nRows {
			return fmt.Errorf("place: %s outside core rows", inst.Name)
		}
		cnt[ri+1]++
	}
	for i := 0; i < nRows; i++ {
		cnt[i+1] += cnt[i]
	}
	spans := make([]span, cnt[nRows])
	fill := make([]int32, nRows)
	copy(fill, cnt[:nRows])
	for _, inst := range nl.Instances {
		if inst.Fixed {
			continue
		}
		ri := int(inst.Pos.Y / rowH)
		w := inst.Cell.WidthNm(fp.Stack)
		if inst.Pos.X < fp.Rows[ri].X0 || inst.Pos.X+w > fp.Rows[ri].X1 {
			return fmt.Errorf("place: %s outside row span", inst.Name)
		}
		for _, b := range blockages[ri] {
			if inst.Pos.X < b.Hi && b.Lo < inst.Pos.X+w {
				return fmt.Errorf("place: %s overlaps tap blockage in row %d", inst.Name, ri)
			}
		}
		spans[fill[ri]] = span{inst.Pos.X, inst.Pos.X + w, int32(inst.Seq)}
		fill[ri]++
	}
	for ri := 0; ri < nRows; ri++ {
		rs := spans[cnt[ri]:cnt[ri+1]]
		slices.SortFunc(rs, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
		for i := 1; i < len(rs); i++ {
			if rs[i].lo < rs[i-1].hi {
				return fmt.Errorf("place: %s overlaps %s in row %d",
					nl.Instances[rs[i].seq].Name, nl.Instances[rs[i-1].seq].Name, ri)
			}
		}
	}
	return nil
}

// Refine improves a legal placement without breaking legality: cells slide
// within their row gaps toward the median X of their connected pins.
// Typical detailed-placement cleanup after legalization. Blockages are
// honored by clamping each slide against the row's blocked intervals.
func Refine(nl *netlist.Netlist, fp *floorplan.Plan, blockages map[int][]geom.Interval, passes int) {
	// A Background context never cancels, so the error is unreachable.
	_ = RefineCtx(context.Background(), nl, fp, blockages, passes)
}

// RefineCtx is Refine under a context: cancellation is observed between
// row-sliding passes and at every row within a pass. A cancelled
// refinement leaves the placement legal (each completed slide preserves
// legality) but callers treat it as unusable for determinism.
func RefineCtx(ctx context.Context, nl *netlist.Netlist, fp *floorplan.Plan, blockages map[int][]geom.Interval, passes int) error {
	return RefineRefsCtx(ctx, nl, fp, blockages, passes, CollectRefineRefs(nl), InstWidths(nl, fp))
}

// packRef encodes a refine endpoint as an int64: non-negative values are
// an Instance.Seq, negative values are a bit-complemented Port.Seq. Only
// the endpoint's X position feeds the slide median, so the pin name can
// be dropped.
func packRef(r netlist.PinRef) int64 {
	if r.IsPort() {
		return int64(^r.Port.Seq)
	}
	return int64(r.Inst.Seq)
}

// appendInstRefs appends inst's refine endpoints — the other endpoints of
// its small nets (fanout ≤ 24) — to the arena in deterministic pin order.
func appendInstRefs(arena []int64, inst *netlist.Instance) []int64 {
	consider := func(n *netlist.Net) {
		if n == nil || n.Fanout() > 24 {
			return
		}
		if n.Driver != (netlist.PinRef{}) && n.Driver.Inst != inst {
			arena = append(arena, packRef(n.Driver))
		}
		for _, s := range n.Sinks {
			if s.Inst != inst {
				arena = append(arena, packRef(s))
			}
		}
	}
	for pi := range inst.Cell.Inputs {
		consider(inst.ConnAt(pi))
	}
	consider(inst.OutputNet())
	return arena
}

// CollectRefineRefs gathers every movable instance's refine endpoints
// into one flat arena (three allocations for the whole netlist instead of
// one slice per instance) and returns per-instance views indexed by Seq.
// Connectivity is static during refinement, so the refs are collected
// once; only endpoint positions are re-read per pass. core.Flow retains
// the result across forks (RefineBasis) and re-collects only the
// instances CTS rewired.
func CollectRefineRefs(nl *netlist.Netlist) [][]int64 {
	refs := make([][]int64, len(nl.Instances))
	ends := make([]int, len(nl.Instances))
	arena := make([]int64, 0, 8*len(nl.Instances))
	for _, inst := range nl.Instances {
		if !inst.Fixed {
			arena = appendInstRefs(arena, inst)
		}
		ends[inst.Seq] = len(arena)
	}
	start := 0
	for seq, end := range ends {
		refs[seq] = arena[start:end:end]
		start = end
	}
	return refs
}

// InstWidths returns every instance's width in nm, indexed by Seq.
func InstWidths(nl *netlist.Netlist, fp *floorplan.Plan) []int64 {
	widths := make([]int64, len(nl.Instances))
	for _, inst := range nl.Instances {
		widths[inst.Seq] = inst.Cell.WidthNm(fp.Stack)
	}
	return widths
}

// RefineRefsCtx is the refinement core over pre-collected endpoint refs
// (CollectRefineRefs) and widths (InstWidths), both indexed by
// Instance.Seq. It produces exactly the slides RefineCtx does — the
// median only depends on the endpoint multiset — while letting callers
// retain the collection across repeated refinements of the same
// connectivity.
func RefineRefsCtx(ctx context.Context, nl *netlist.Netlist, fp *floorplan.Plan, blockages map[int][]geom.Interval, passes int, refs [][]int64, widths []int64) error {
	rowH := fp.Stack.CellHeightNm()
	nRows := len(fp.Rows)
	rows := make([][]*netlist.Instance, nRows)
	for _, inst := range nl.Instances {
		if inst.Fixed {
			continue
		}
		ri := int(geom.Clamp64(inst.Pos.Y/rowH, 0, int64(nRows-1)))
		rows[ri] = append(rows[ri], inst)
	}
	insts, ports := nl.Instances, nl.Ports
	var xs []int64
	desired := func(inst *netlist.Instance) int64 {
		xs = xs[:0]
		for _, r := range refs[inst.Seq] {
			if r >= 0 {
				xs = append(xs, insts[r].Pos.X+widths[r]/2)
			} else {
				xs = append(xs, ports[^r].Pos.X)
			}
		}
		if len(xs) == 0 {
			return inst.Pos.X
		}
		return medianInt64(xs)
	}
	// Post-legalization X positions in a row are unique (cells never
	// overlap), so the unstable sort is deterministic; each slide stays
	// strictly between its neighbors, so one sort covers every pass.
	for _, cellsInRow := range rows {
		slices.SortFunc(cellsInRow, func(a, b *netlist.Instance) int {
			return cmp.Compare(a.Pos.X, b.Pos.X)
		})
	}
	// Median cache with reverse-adjacency invalidation: a cell's median
	// depends only on its refs' live positions, so it stays valid until
	// one of those refs slides (ports never move). Passes after the
	// first recompute only the cells a slide actually dirtied, which is
	// the bulk of the refinement cost once the placement settles.
	nInst := len(insts)
	med := make([]int64, nInst)
	medOK := make([]bool, nInst)
	depCnt := make([]int32, nInst+1)
	for j := range refs {
		for _, r := range refs[j] {
			if r >= 0 {
				depCnt[r+1]++
			}
		}
	}
	for i := 0; i < nInst; i++ {
		depCnt[i+1] += depCnt[i]
	}
	deps := make([]int32, depCnt[nInst])
	fill := make([]int32, nInst)
	copy(fill, depCnt[:nInst])
	for j := range refs {
		for _, r := range refs[j] {
			if r >= 0 {
				deps[fill[r]] = int32(j)
				fill[r]++
			}
		}
	}
	cpp := fp.Stack.CPPNm
	done := ctx.Done()
	for pass := 0; pass < passes; pass++ {
		movedAny := false
		for ri := 0; ri < nRows; ri++ {
			cellsInRow := rows[ri]
			if len(cellsInRow) == 0 {
				continue
			}
			if err := pollCtx(ctx, done); err != nil {
				return err
			}
			for i, inst := range cellsInRow {
				w := widths[inst.Seq]
				lo := fp.Core.Lo.X
				if i > 0 {
					prev := cellsInRow[i-1]
					lo = prev.Pos.X + widths[prev.Seq]
				}
				hi := fp.Core.Hi.X - w
				if i+1 < len(cellsInRow) {
					hi = cellsInRow[i+1].Pos.X - w
				}
				if hi < lo {
					continue
				}
				// Clamp the slide span against tap blockages in this row.
				for _, b := range blockages[ri] {
					if b.Hi <= inst.Pos.X && b.Hi > lo {
						lo = b.Hi
					}
					if b.Lo >= inst.Pos.X+w && b.Lo-w < hi {
						hi = b.Lo - w
					}
				}
				if hi < lo {
					continue
				}
				seq := inst.Seq
				if !medOK[seq] {
					med[seq] = desired(inst)
					medOK[seq] = true
				}
				want := geom.Clamp64(med[seq]-w/2, lo, hi)
				want = geom.SnapDown(want, 0, cpp)
				if want < lo {
					want += cpp
				}
				if want >= lo && want <= hi && want != inst.Pos.X {
					inst.Pos = geom.Pt(want, inst.Pos.Y)
					movedAny = true
					for _, j := range deps[depCnt[seq]:depCnt[seq+1]] {
						medOK[j] = false
					}
					if len(refs[seq]) == 0 {
						// No refs: desired() falls back to the cell's
						// own X, which this slide just changed.
						medOK[seq] = false
					}
				}
			}
		}
		// A pass with zero slides is a fixed point: every later pass
		// recomputes the same medians over the same positions, so the
		// remaining passes are provable no-ops.
		if !movedAny {
			break
		}
	}
	return nil
}

// medianInt64 returns the (len/2)-th smallest element — the value a full
// sort would leave at xs[len(xs)/2] — via iterative quickselect,
// scrambling xs in the process. Refinement medians run once per cell per
// pass, and typical endpoint sets are large enough that selection beats
// a full sort.
func medianInt64(xs []int64) int64 {
	k := len(xs) / 2
	lo, hi := 0, len(xs)-1
	for {
		if hi-lo < 12 {
			for i := lo + 1; i <= hi; i++ {
				for j := i; j > lo && xs[j] < xs[j-1]; j-- {
					xs[j], xs[j-1] = xs[j-1], xs[j]
				}
			}
			return xs[k]
		}
		mid := (lo + hi) / 2
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		p := xs[mid]
		i, j := lo, hi
		for i <= j {
			for xs[i] < p {
				i++
			}
			for xs[j] > p {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			return xs[k]
		}
	}
}
