package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/serve"
	"repro/internal/variation"
)

// Daemon-mix load shape. The load is a closed loop: daemonConns clients,
// each sending its next request when the previous one returned. One
// client leaves the second core of the 2-core reference host to a
// request's parallel sweep points, the daemon's workers and the garbage
// collector; with two clients the medians moved about three times as
// much from seed to seed (see perfbench/README.md).
const (
	daemonConns  = 1
	daemonWarmup = 100  // closed-loop warm-up requests per setup
	daemonReqs   = 4000 // requests drawn per run; a 15 s window uses about 360
	daemonChecks = 4    // seed-chosen flow or sweep responses compared with scratch runs
	// daemonCheckFrom bounds the indices checks are chosen from, so the
	// chosen requests are issued in any window.
	daemonCheckFrom = 200
)

// daemon is an in-process ffetd on a loopback listener with default
// options, and its HTTP client.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
	gen    *daemonGen
}

func startDaemon(seed int64, warmup int) (*daemon, error) {
	srv, err := serve.New(serve.Options{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     daemonConns,
			MaxIdleConnsPerHost: daemonConns,
			DisableCompression:  true,
		}},
		gen: newDaemonGen(seed),
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	// Warm-up fills the checkpoint cache and the memo the way the
	// measured stream would, so the window starts in steady state.
	reqs := make([]daemonReq, warmup)
	for i := range reqs {
		reqs[i] = d.gen.next()
	}
	var firstErr error
	var mu sync.Mutex
	closedLoop(reqs, daemonConns, func(i int) {
		if _, err := d.do(reqs[i], false, nil, -1, i); err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = fmt.Errorf("warm-up request %d: %w", i, err)
			}
			mu.Unlock()
		}
	})
	if firstErr != nil {
		d.close()
		return nil, firstErr
	}
	return d, nil
}

// close stops the HTTP server, waits for it to exit and cancels any
// daemon work.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.srv.StartDrain()
	if err := d.hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "daemon shutdown:", err)
	}
	<-d.served
	d.srv.Close()
	d.client.CloseIdleConnections()
}

// closedLoop runs do(i) for every request index on n client goroutines,
// each issuing its next request after the previous one completed.
func closedLoop(reqs []daemonReq, n int, do func(i int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				do(i)
			}
		}()
	}
	for i := range reqs {
		next <- i
	}
	close(next)
	wg.Wait()
}

// do sends one request and returns the response body: the plain body,
// or the "done" event's data of a streamed (traced) request. Streamed
// stage events become spans under parent, ending when the event arrived.
func (d *daemon) do(req daemonReq, stream bool, tr *tracer, parent, op int) ([]byte, error) {
	url := d.url + "/v1/" + req.Kind
	if stream {
		url += "?stream=1"
	}
	resp, err := d.client.Post(url, "application/json", bytes.NewReader(req.Body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	if !stream {
		return io.ReadAll(resp.Body)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var ev struct {
			Event string          `json:"event"`
			Stage string          `json:"stage"`
			Ms    float64         `json:"ms"`
			Data  json.RawMessage `json:"data"`
			Error json.RawMessage `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("stream event: %w", err)
		}
		switch ev.Event {
		case "stage":
			if tr != nil {
				end := tr.now()
				tr.add(ev.Stage, parent, op, end-time.Duration(ev.Ms*float64(time.Millisecond)), end, 0)
			}
		case "error":
			return nil, fmt.Errorf("stream error: %s", ev.Error)
		case "done":
			return ev.Data, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, errors.New("stream ended without a done event")
}

// outcome is one measured request.
type outcome struct {
	latency time.Duration // from send to the whole response
	err     error
	body    []byte // kept only for requests chosen for the output check
}

// runDaemonMix measures the in-process daemon under a closed loop of
// daemonConns clients. The window ends on a whole daemonBlock of
// requests, so every run sends the same mix.
func runDaemonMix(o options) (*report, error) {
	d, setupS, err := timedSetup(func() (*daemon, error) { return startDaemon(o.seed, daemonWarmup) })
	if err != nil {
		return nil, err
	}
	defer d.close()
	reqs := genDaemonReqs(d.gen, daemonReqs)
	checked := pickChecks(o.seed, reqs[:daemonCheckFrom])

	var tr *tracer
	var heap *heapWatch
	if o.trace {
		tr = newTracer()
		heap = startHeapWatch(5 * time.Millisecond)
	}
	runtime.GC()
	rt := newRTReader()
	before, st0 := rt.read(), d.srv.StatsSnapshot()

	out := make([]outcome, len(reqs))
	reqSpans := make([]int, len(reqs))
	window := time.Duration(o.seconds * float64(time.Second))
	var mu sync.Mutex
	issued, stopped := 0, false
	start := time.Now()
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if stopped || issued == len(reqs) ||
			(issued%len(daemonBlock) == 0 && time.Since(start) >= window) {
			stopped = true
			return 0, false
		}
		issued++
		return issued - 1, true
	}
	var wg sync.WaitGroup
	for c := 0; c < daemonConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, ok := take(); ok; i, ok = take() {
				traced := o.trace && i%2 == 1
				reqSpans[i] = -1
				if traced {
					reqSpans[i] = tr.reserve("serve."+reqs[i].Kind, -1, i)
				}
				t0 := time.Now()
				body, err := d.do(reqs[i], traced, tr, reqSpans[i], i)
				out[i] = outcome{latency: time.Since(t0), err: err}
				if traced {
					tr.finish(reqSpans[i])
				}
				if i < len(checked) && checked[i] {
					out[i].body = body
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	after, st1 := rt.read(), d.srv.StatsSnapshot()
	var heapPeak uint64
	if heap != nil {
		heapPeak = heap.finish()
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	reqs, out, reqSpans = reqs[:issued], out[:issued], reqSpans[:issued]

	var lat []float64
	failed := 0
	for i, oc := range out {
		lat = append(lat, ms(oc.latency))
		if oc.err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "request %d (%s): %v\n", i, reqs[i].Kind, oc.err)
		}
	}
	mismatches, err := checkDaemon(reqs, out, checked)
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	rep := &report{Attempted: issued, Failed: failed + mismatches}
	rep.Correct = rep.Failed == 0

	vals := map[string]float64{}
	if !o.trace {
		tl := tailOf(lat)
		fmt.Printf("%s tail_ms: %s\n", o.workload, tl)
		vals["setup_s"] = setupS
		vals["ops_per_s"] = float64(issued-failed) / elapsed.Seconds()
		vals["p50_ms"] = median(lat)
		vals["tail_ms"] = tl.Value
		vals["alloc_mb_per_op"] = float64(after.AllocBytes-before.AllocBytes) / float64(issued) / (1 << 20)
		vals["peak_rss_mb"] = rss
		rep.Metrics, err = finalize(vals, endToEnd)
		return rep, err
	}

	spans := tr.snapshot()
	runtimeLayers(vals, before, after, heapPeak)
	var plain, streamed []float64
	byKind := map[string][]float64{}
	for i, l := range lat {
		byKind[reqs[i].Kind] = append(byKind[reqs[i].Kind], l)
		if i%2 == 1 {
			streamed = append(streamed, l)
		} else {
			plain = append(plain, l)
		}
	}
	for _, k := range daemonKinds {
		vals["serve."+k+".p50_ms"] = median(byKind[k])
	}
	vals["trace.overhead_frac"] = median(streamed)/median(plain) - 1
	self := selfTimes(spans)
	var reqSelf, reqTotal time.Duration
	for _, id := range reqSpans {
		if id >= 0 {
			reqSelf += self[id]
			reqTotal += spans[id].End - spans[id].Start
		}
	}
	vals["trace.unattributed_frac"] = ratio(float64(reqSelf), float64(reqTotal))
	stageLayers(vals, spans, len(streamed))
	for _, s := range stageNames {
		delete(vals, s+".alloc_mb") // server-side allocation is not attributable per stage
	}
	serveLayers(vals, st0, st1)
	if err := writeSpans(tracePath(o), spans); err != nil {
		return nil, err
	}
	rep.Metrics, err = finalize(vals, perLayer)
	return rep, err
}

// serveLayers adds the daemon's cache and admission counters over the
// window.
func serveLayers(vals map[string]float64, a, b serve.Stats) {
	ckHits := float64(b.Checkpoint.Hits - a.Checkpoint.Hits)
	ckMiss := float64(b.Checkpoint.Misses - a.Checkpoint.Misses)
	vals["serve.checkpoint_hit_ratio"] = ratio(ckHits, ckHits+ckMiss)
	vals["serve.checkpoint_evictions"] = float64(b.Checkpoint.Evictions - a.Checkpoint.Evictions)
	vals["serve.coalesced"] = float64(b.Checkpoint.Coalesced - a.Checkpoint.Coalesced)
	vals["serve.resident_mb"] = float64(b.Checkpoint.ResidentBytes) / (1 << 20)
	memoHits := float64(b.Memo.Hits - a.Memo.Hits)
	memoMiss := float64(b.Memo.Misses - a.Memo.Misses)
	vals["serve.memo_hit_ratio"] = ratio(memoHits, memoHits+memoMiss)
	forks := float64(b.Sweep.DiffForks - a.Sweep.DiffForks)
	others := float64(b.Sweep.DiffFallbacks-a.Sweep.DiffFallbacks) + float64(b.Sweep.FullSynthForks-a.Sweep.FullSynthForks)
	vals["serve.sweep_diff_fork_ratio"] = ratio(forks, forks+others)
	vals["serve.rejected"] = float64(b.Requests.Rejected - a.Requests.Rejected)
}

// pickChecks chooses, from the seed, which responses the output check
// compares with scratch runs: daemonChecks flow or sweep requests and
// one Monte Carlo request.
func pickChecks(seed int64, reqs []daemonReq) []bool {
	r := newRand(seed, 0xc4d)
	var flows, mcs []int
	for i, q := range reqs {
		if q.Kind == kindMC {
			mcs = append(mcs, i)
		} else {
			flows = append(flows, i)
		}
	}
	checked := make([]bool, len(reqs))
	for _, k := range r.Perm(len(flows))[:min(daemonChecks, len(flows))] {
		checked[flows[k]] = true
	}
	if len(mcs) > 0 {
		checked[mcs[r.IntN(len(mcs))]] = true
	}
	return checked
}

// checkDaemon compares each chosen response with the summary of a
// scratch core.RunFlow of the same spec (a Monte Carlo response with a
// scratch flow's variation study) and returns the mismatch count.
func checkDaemon(reqs []daemonReq, out []outcome, checked []bool) (int, error) {
	suite, err := exp.NewSuite(exp.Quick)
	if err != nil {
		return 0, err
	}
	bad := 0
	for i, q := range reqs[:min(len(reqs), len(checked))] {
		if !checked[i] || out[i].err != nil {
			continue
		}
		want, err := scratchBody(suite, q)
		if err != nil {
			return 0, fmt.Errorf("request %d: %w", i, err)
		}
		got, err := compact(out[i].body)
		if err != nil || !bytes.Equal(got, want) {
			bad++
			fmt.Printf("daemon-mix: request %d (%s) differs from the scratch run\n", i, q.Kind)
		}
	}
	return bad, nil
}

// scratchBody renders the response a request should get, from scratch
// runs outside the daemon.
func scratchBody(suite *exp.Suite, q daemonReq) ([]byte, error) {
	summary := func(sp serve.FlowSpec) (json.RawMessage, error) {
		arch, cfg, err := sp.Config()
		if err != nil {
			return nil, err
		}
		res, err := core.RunFlow(suite.Netlist(arch), cfg)
		if err != nil {
			return nil, err
		}
		return json.Marshal(serve.NewSummary(res))
	}
	var body any
	switch q.Kind {
	case kindFlow:
		var sp serve.FlowSpec
		if err := json.Unmarshal(q.Body, &sp); err != nil {
			return nil, err
		}
		res, err := summary(sp)
		if err != nil {
			return nil, err
		}
		body = map[string]json.RawMessage{"result": res}
	case kindSweep:
		var sw serve.SweepRequest
		if err := json.Unmarshal(q.Body, &sw); err != nil {
			return nil, err
		}
		pts, err := sw.Points()
		if err != nil {
			return nil, err
		}
		var results []json.RawMessage
		for _, sp := range pts {
			res, err := summary(sp)
			if err != nil {
				return nil, err
			}
			results = append(results, res)
		}
		body = map[string][]json.RawMessage{"results": results}
	case kindMC:
		var mr serve.MCRequest
		if err := json.Unmarshal(q.Body, &mr); err != nil {
			return nil, err
		}
		arch, cfg, err := mr.Base.Config()
		if err != nil {
			return nil, err
		}
		f, err := core.NewFlow(suite.Netlist(arch), cfg)
		if err != nil {
			return nil, err
		}
		if _, err := f.Run(); err != nil {
			return nil, err
		}
		basis, err := f.VariationBasis()
		if err != nil {
			return nil, err
		}
		opt := variation.DefaultOptions()
		opt.Samples = mr.Samples
		opt.Seed = mr.Seed
		sum, err := variation.Study(context.Background(), basis, opt)
		if err != nil {
			return nil, err
		}
		body = map[string]serve.MCSummary{"mc": serve.NewMCSummary(sum)}
	}
	b, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	return compact(b)
}

func compact(b []byte) ([]byte, error) {
	var buf bytes.Buffer
	err := json.Compact(&buf, bytes.TrimSpace(b))
	return buf.Bytes(), err
}
