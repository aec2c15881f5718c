package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// rtSample is one reading of the Go runtime counters the benchmark
// reports.
type rtSample struct {
	AllocBytes uint64  // cumulative heap bytes allocated
	GCCPU      float64 // cumulative estimated GC CPU seconds
	TotalCPU   float64 // cumulative estimated CPU seconds
	GCCycles   uint64
	HeapBytes  uint64 // live and not-yet-swept heap objects
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/memory/classes/heap/objects:bytes",
}

// rtReader reads the runtime counters into reused storage. It is not
// safe for concurrent use.
type rtReader struct{ s []metrics.Sample }

func newRTReader() *rtReader {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	return &rtReader{s: s}
}

func (r *rtReader) read() rtSample {
	metrics.Read(r.s)
	return rtSample{
		AllocBytes: r.s[0].Value.Uint64(),
		GCCPU:      r.s[1].Value.Float64(),
		TotalCPU:   r.s[2].Value.Float64(),
		GCCycles:   r.s[3].Value.Uint64(),
		HeapBytes:  r.s[4].Value.Uint64(),
	}
}

// allocBytes returns the cumulative heap allocation counter alone.
func (r *rtReader) allocBytes() uint64 {
	metrics.Read(r.s[:1])
	return r.s[0].Value.Uint64()
}

// heapWatch samples the heap size on a ticker and keeps the peak.
type heapWatch struct {
	stop chan struct{}
	done chan struct{}
	peak uint64 // written by the sampler; read after done is closed
}

func startHeapWatch(every time.Duration) *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		r := newRTReader()
		tk := time.NewTicker(every)
		defer tk.Stop()
		for {
			h.peak = max(h.peak, r.read().HeapBytes)
			select {
			case <-h.stop:
				return
			case <-tk.C:
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it to exit and returns the peak.
func (h *heapWatch) finish() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
