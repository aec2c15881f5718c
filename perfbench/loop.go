package main

import (
	"fmt"
	"os"
	"runtime"
	"time"
)

// setupRuns is how many times a run builds its workload state; setup_s
// reports the median, and the last build is the one measured.
const setupRuns = 3

// closedWorkload is driven by one client that issues its next op only
// after the previous one completed.
type closedWorkload interface {
	// op runs one operation on input in. tr is nil on untraced ops;
	// parent is the op's root span.
	op(in int, tr *tracer, parent int) error
	// cycle is the number of inputs after which the input mix repeats
	// its strata; a run ends on a multiple of it.
	cycle() int
	// minOps is the least number of ops an untraced run measures, also
	// when the window is over sooner.
	minOps() int
	// check verifies the outputs recorded during the window and returns
	// the number of mismatches. It runs outside the window.
	check(traced bool) (int, error)
	// layers adds the workload's per-layer metrics of a traced window.
	layers(vals map[string]float64, spans []span, tracedOps int)
	// close releases what setup built.
	close()
}

// timedSetup builds the workload setupRuns times and returns the last
// build with the median build time in seconds.
func timedSetup[W interface{ close() }](build func() (W, error)) (W, float64, error) {
	var w W
	var times []float64
	for r := 0; r < setupRuns; r++ {
		if r > 0 {
			w.close()
			runtime.GC()
		}
		t0 := time.Now()
		nw, err := build()
		if err != nil {
			return w, 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		w = nw
	}
	return w, median(times), nil
}

// runClosed measures a closed-loop workload. Untraced, every op counts
// toward the end-to-end metrics. Traced, ops alternate untraced and
// traced on the same input, which gives the tracing overhead and the
// traced-vs-untraced output check.
func runClosed(o options, build func() (closedWorkload, error)) (*report, error) {
	w, setupS, err := timedSetup(build)
	if err != nil {
		return nil, err
	}
	defer w.close()
	var tr *tracer
	var heap *heapWatch
	if o.trace {
		tr = newTracer()
		heap = startHeapWatch(5 * time.Millisecond)
	}
	runtime.GC()

	rt := newRTReader()
	before := rt.read()
	perInput := 1
	if o.trace {
		perInput = 2
	}
	var lat, tracedLat []float64
	var opSpans []int
	failed := 0
	window := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	for i := 0; ; i++ {
		in := i / perInput
		if i%(perInput*w.cycle()) == 0 && i > 0 && time.Since(start) >= window && (o.trace || i >= w.minOps()) {
			break
		}
		traced := o.trace && i%2 == 1
		var opTr *tracer
		parent := -1
		if traced {
			opTr = tr
			parent = tr.reserve("op", -1, i)
			opSpans = append(opSpans, parent)
		}
		t0 := time.Now()
		err := w.op(in, opTr, parent)
		d := time.Since(t0)
		if traced {
			tr.finish(parent)
			tracedLat = append(tracedLat, ms(d))
		} else {
			lat = append(lat, ms(d))
		}
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "op %d: %v\n", i, err)
		}
	}
	elapsed := time.Since(start)
	after := rt.read()
	var heapPeak uint64
	if heap != nil {
		heapPeak = heap.finish()
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	attempted := len(lat) + len(tracedLat)

	mismatches, err := w.check(o.trace)
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	rep := &report{Attempted: attempted, Failed: failed + mismatches}
	rep.Correct = rep.Failed == 0

	vals := map[string]float64{}
	if !o.trace {
		tl := tailOf(lat)
		fmt.Printf("%s tail_ms: %s\n", o.workload, tl)
		vals["setup_s"] = setupS
		vals["ops_per_s"] = float64(attempted-failed) / elapsed.Seconds()
		vals["p50_ms"] = median(lat)
		vals["tail_ms"] = tl.Value
		vals["alloc_mb_per_op"] = float64(after.AllocBytes-before.AllocBytes) / float64(attempted) / (1 << 20)
		vals["peak_rss_mb"] = rss
		rep.Metrics, err = finalize(vals, endToEnd)
		return rep, err
	}

	spans := tr.snapshot()
	runtimeLayers(vals, before, after, heapPeak)
	vals["trace.overhead_frac"] = median(tracedLat)/median(lat) - 1
	self := selfTimes(spans)
	var opSelf, opTotal time.Duration
	for _, id := range opSpans {
		opSelf += self[id]
		opTotal += spans[id].End - spans[id].Start
	}
	vals["trace.unattributed_frac"] = ratio(float64(opSelf), float64(opTotal))
	w.layers(vals, spans, len(tracedLat))
	if err := writeSpans(tracePath(o), spans); err != nil {
		return nil, err
	}
	rep.Metrics, err = finalize(vals, perLayer)
	return rep, err
}

// runtimeLayers adds the Go runtime's per-layer metrics over a window.
func runtimeLayers(vals map[string]float64, before, after rtSample, heapPeak uint64) {
	vals["runtime.gc_cpu_frac"] = ratio(after.GCCPU-before.GCCPU, after.TotalCPU-before.TotalCPU)
	vals["runtime.gc_cycles"] = float64(after.GCCycles - before.GCCycles)
	vals["runtime.heap_peak_mb"] = float64(heapPeak) / (1 << 20)
}

// stageLayers adds per-op stage self time and allocation from the spans
// named after pipeline stages.
func stageLayers(vals map[string]float64, spans []span, ops int) {
	if ops == 0 {
		return
	}
	self, alloc := layerTotals(spans)
	for _, s := range stageNames {
		vals[s+".ms"] = ms(self[s]) / float64(ops)
		vals[s+".alloc_mb"] = float64(alloc[s]) / float64(ops) / (1 << 20)
	}
}

// tracePath is where a traced run writes its spans, inside the build
// directory of the checkout.
func tracePath(o options) string {
	return fmt.Sprintf(".bench_build/traces/%s-seed%d.jsonl", o.workload, o.seed)
}
