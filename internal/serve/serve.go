package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/faultinject"
	"repro/internal/sweep"
	"repro/internal/variation"
)

// Options configures a Server. Zero values take the documented defaults.
type Options struct {
	// Scale selects the benchmark workload size (exp.Quick or exp.Full).
	Scale exp.Scale
	// CacheBytes bounds the checkpoint store's measured resident
	// footprint, experiment-table checkpoints included (default 256 MiB).
	CacheBytes int64
	// MaxWorkers bounds concurrent flow executions (default
	// min(GOMAXPROCS, 12), matching exp's pool).
	MaxWorkers int
	// MaxQueue bounds admitted requests waiting for a worker slot beyond
	// the in-flight ones; past it requests are rejected with 429
	// (default 64).
	MaxQueue int
	// MemoEntries bounds the exact-config result memo: past it the
	// least-recently-used marshaled Summary is evicted (default 4096).
	MemoEntries int
}

func (o Options) withDefaults() Options {
	if o.CacheBytes <= 0 {
		o.CacheBytes = 256 << 20
	}
	if o.MaxWorkers <= 0 {
		o.MaxWorkers = min(runtime.GOMAXPROCS(0), 12)
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 64
	}
	if o.MemoEntries <= 0 {
		o.MemoEntries = 4096
	}
	return o
}

// Server is the ffetd daemon state: the exp suite (libraries, netlists,
// the experiment tables and their memo), the checkpoint store both the
// suite and the request handlers share, the result memo, and the
// admission pool. Create with New, mount Handler on an http.Server, and
// Close on shutdown.
type Server struct {
	opt   Options
	suite *exp.Suite
	// suiteMu serializes /v1/exp table runs: the suite's sweeps already
	// parallelize internally, so concurrent tables would only fight over
	// the pool.
	suiteMu sync.Mutex
	// exec runs /v1/flow, /v1/sweep and /v1/mc over the checkpoint store
	// the suite also uses; it keeps its own sharing counters.
	exec *sweep.Executor
	// memo holds the marshaled Summary of completed exact-config runs,
	// bounded by Options.MemoEntries. Error responses are never memoized.
	memo *sweep.Memo[json.RawMessage]

	// baseCtx bounds every shared build and outlives any single request;
	// Close cancels it, killing in-flight work.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	sem      chan struct{}
	queued   atomic.Int64
	draining atomic.Bool

	accepted, rejected atomic.Int64
	inflight           atomic.Int64
}

// New builds a daemon: libraries and benchmark netlists for both
// architectures plus an empty checkpoint store.
func New(opt Options) (*Server, error) {
	opt = opt.withDefaults()
	store := sweep.NewStore(opt.CacheBytes)
	suite, err := exp.NewSuiteStore(opt.Scale, store)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	suite.Ctx = ctx
	return &Server{
		opt:        opt,
		suite:      suite,
		exec:       sweep.NewExecutor(store, suite.Netlist),
		memo:       sweep.NewMemo[json.RawMessage](opt.MemoEntries),
		baseCtx:    ctx,
		baseCancel: cancel,
		sem:        make(chan struct{}, opt.MaxWorkers),
	}, nil
}

// StartDrain rejects new requests with 503 while in-flight ones finish.
// The HTTP layer's Shutdown does the actual waiting.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Close cancels the base context: every in-flight build and leaf run
// dies with ErrCancelled at its next stage boundary.
func (s *Server) Close() { s.baseCancel() }

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/flow", s.handleFlow)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("POST /v1/mc", s.handleMC)
	mux.HandleFunc("GET /v1/exp", s.handleExp)
	mux.HandleFunc("GET /debug/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	return mux
}

// Errors the admission gate reports.
var (
	errBusy     = errors.New("serve: request queue full")
	errDraining = errors.New("serve: draining")
)

// acquire admits one flow execution into the worker pool and counts the
// verdict; release frees the slot.
func (s *Server) acquire(ctx context.Context) error {
	if err := s.admit(ctx); err != nil {
		s.rejected.Add(1)
		return err
	}
	s.accepted.Add(1)
	s.inflight.Add(1)
	return nil
}

func (s *Server) release() {
	s.inflight.Add(-1)
	<-s.sem
}

// admit waits for a worker slot under the request context. It fails fast
// when the queue bound is exceeded or the daemon is draining.
func (s *Server) admit(ctx context.Context) error {
	if err := faultinject.Fire("serve.admit"); err != nil {
		return err
	}
	if s.draining.Load() {
		return errDraining
	}
	if int(s.queued.Add(1)) > s.opt.MaxQueue+s.opt.MaxWorkers {
		s.queued.Add(-1)
		return errBusy
	}
	defer s.queued.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-s.baseCtx.Done():
		return errDraining
	}
}

// reqCtx derives the context one request's flow work runs under: the
// request context (client disconnect cancels it) joined with the daemon
// base context (Close cancels everything).
func (s *Server) reqCtx(r *http.Request) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(r.Context())
	stop := context.AfterFunc(s.baseCtx, cancel)
	return ctx, func() { stop(); cancel() }
}

// execute runs one request's points. Each point takes its own admission
// slot, so a big sweep cannot starve single-flow clients. Checkpoint
// builds run under the daemon context and outlive a vanished client; the
// leaf stops at the next stage boundary after cancellation. Sweep events
// carry their point index, and each sweep point streams its body.
func (s *Server) execute(ctx context.Context, st *streamer, isSweep bool, pts []sweep.Point,
	memo *sweep.Memo[json.RawMessage], finish func(context.Context, *core.Flow) (json.RawMessage, error)) []sweep.Result[json.RawMessage] {
	job := sweep.Job[json.RawMessage]{
		Plan:     sweep.NewPlan(pts),
		Memo:     memo,
		Finish:   func(leaf *core.Flow) (json.RawMessage, error) { return finish(ctx, leaf) },
		BuildCtx: s.baseCtx,
		Acquire: func(ctx context.Context) error {
			err := s.acquire(ctx)
			if err == nil && !isSweep {
				st.emit(event{Event: "accepted"})
			}
			return err
		},
		Release: s.release,
		Event: func(ev sweep.Event) {
			var pt *int
			if isSweep {
				pt = &ev.Point
			}
			if ev.Kind != "" {
				st.emit(event{Event: "checkpoint", Point: pt, Kind: ev.Kind, Hit: &ev.Hit})
				return
			}
			st.emit(event{Event: "stage", Point: pt, Stage: ev.Stage.String(),
				Ms: float64(ev.Dur) / float64(time.Millisecond)})
		},
	}
	if isSweep {
		job.Done = func(i int, r sweep.Result[json.RawMessage]) {
			if r.Err == nil {
				st.emit(event{Event: "point", Point: &i, Data: r.Value})
			}
		}
	}
	return sweep.Execute(ctx, s.exec, job)
}

// summaryBody marshals a leaf's Summary.
func summaryBody(_ context.Context, leaf *core.Flow) (json.RawMessage, error) {
	return json.Marshal(NewSummary(leaf.Result()))
}

// streamer serializes NDJSON event lines onto one response. A nil
// streamer discards events (non-streaming requests).
type streamer struct {
	mu sync.Mutex
	w  http.ResponseWriter
	fl http.Flusher
}

func newStreamer(w http.ResponseWriter, r *http.Request) *streamer {
	if r.URL.Query().Get("stream") == "" {
		return nil
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	fl, _ := w.(http.Flusher)
	return &streamer{w: w, fl: fl}
}

func (st *streamer) emit(ev event) {
	if st == nil {
		return
	}
	line, err := json.Marshal(ev)
	if err != nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.w.Write(append(line, '\n'))
	if st.fl != nil {
		st.fl.Flush()
	}
}

// writeBody terminates a request: streaming responses get the final body
// as a "done" event line, plain responses get it as the entire payload.
// The body bytes are identical either way.
func (st *streamer) writeBody(w http.ResponseWriter, body []byte) {
	if st != nil {
		st.emit(event{Event: "done", Data: body})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n'))
}

// httpError maps a failure onto a status + JSON error body. Once a
// stream has started the status line is gone; the error becomes a
// terminal event instead.
func (st *streamer) httpError(w http.ResponseWriter, status int, body *ErrorBody) {
	if st != nil {
		st.emit(event{Event: "error", Error: body})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	b, _ := json.Marshal(struct {
		Error *ErrorBody `json:"error"`
	}{body})
	w.Write(append(b, '\n'))
}

// containPanic converts a panicking request path into a classified 500
// error response: an injected or organic panic kills the request, never
// the daemon. Deferred before admission so even admission-gate panics
// (faultinject's serve.admit site) are contained.
func containPanic(st *streamer, w http.ResponseWriter, name string) {
	if r := recover(); r != nil {
		st.httpError(w, http.StatusInternalServerError, newErrorBody(name, core.NewPanicError(name, r), nil))
	}
}

// errStatus maps a failure to its HTTP status.
func errStatus(err error) int {
	switch {
	case errors.Is(err, errBusy):
		return http.StatusTooManyRequests
	case errors.Is(err, errDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, core.ErrInvalidConfig):
		return http.StatusBadRequest
	case errors.Is(err, core.ErrCancelled), errors.Is(err, context.Canceled):
		return 499 // client closed request (or daemon shutdown)
	default:
		return http.StatusInternalServerError
	}
}

// decodeStrict decodes one JSON request body, rejecting unknown fields.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// badRequest answers an invalid request with a 400 invalid_config body
// before any flow work is admitted.
func badRequest(w http.ResponseWriter, msg string) {
	(*streamer)(nil).httpError(w, http.StatusBadRequest, &ErrorBody{Kind: "invalid_config", Message: msg})
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := decodeStrict(r.Body, v); err != nil {
		badRequest(w, "bad request body: "+err.Error())
		return false
	}
	return true
}

func (s *Server) handleFlow(w http.ResponseWriter, r *http.Request) {
	var spec FlowSpec
	if decodeJSON(w, r, &spec) {
		s.serveOne(w, r, spec, s.memo, summaryBody, "result")
	}
}

// serveOne answers a single-point request: it runs the spec's flow, turns
// the leaf into a value with finish, and responds {"<key>": value} or
// the classified error.
func (s *Server) serveOne(w http.ResponseWriter, r *http.Request, spec FlowSpec, memo *sweep.Memo[json.RawMessage],
	finish func(context.Context, *core.Flow) (json.RawMessage, error), key string) {
	arch, cfg, err := spec.Config()
	if err != nil {
		badRequest(w, err.Error())
		return
	}
	st := newStreamer(w, r)
	defer containPanic(st, w, cfg.Name)
	ctx, cancel := s.reqCtx(r)
	defer cancel()
	res := s.execute(ctx, st, false, []sweep.Point{{Arch: arch, Cfg: cfg}}, memo, finish)[0]
	if res.Err != nil {
		st.httpError(w, errStatus(res.Err), newErrorBody(cfg.Name, res.Err, res.Partial))
		return
	}
	resp, _ := json.Marshal(map[string]json.RawMessage{key: res.Value})
	st.writeBody(w, resp)
}

// sweepPoints validates a sweep request into executor points.
func sweepPoints(req SweepRequest) ([]sweep.Point, error) {
	specs, err := req.Points()
	if err != nil {
		return nil, err
	}
	pts := make([]sweep.Point, len(specs))
	for i, sp := range specs {
		arch, cfg, err := sp.Config()
		if err != nil {
			return nil, fmt.Errorf("point %d: %v", i, err)
		}
		pts[i] = sweep.Point{Arch: arch, Cfg: cfg}
	}
	return pts, nil
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	pts, err := sweepPoints(req)
	if err != nil {
		badRequest(w, err.Error())
		return
	}
	st := newStreamer(w, r)
	// The executor contains per-point panics; this catches the outer
	// sweep path (result assembly, marshal) so those too die as a
	// classified 500 instead of a dropped connection.
	defer containPanic(st, w, "sweep")
	ctx, cancel := s.reqCtx(r)
	defer cancel()
	st.emit(event{Event: "accepted"})

	rs := s.execute(ctx, st, true, pts, s.memo, summaryBody)
	results := make([]json.RawMessage, len(rs))
	for i, res := range rs {
		results[i] = res.Value
		if res.Err != nil {
			results[i], _ = json.Marshal(struct {
				Error *ErrorBody `json:"error"`
			}{newErrorBody(pts[i].Cfg.Name, res.Err, res.Partial)})
		}
	}
	resp, _ := json.Marshal(struct {
		Results []json.RawMessage `json:"results"`
	}{results})
	st.writeBody(w, resp)
}

// handleMC runs a variation study on the completed flow of the base
// spec, staged through the same checkpoints as /v1/flow. The study needs
// the live session (engine + RC), so it never reads the result memo.
func (s *Server) handleMC(w http.ResponseWriter, r *http.Request) {
	var req MCRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	s.serveOne(w, r, req.Base, nil, func(ctx context.Context, leaf *core.Flow) (json.RawMessage, error) {
		basis, err := leaf.VariationBasis()
		if err != nil {
			return nil, err
		}
		sum, err := variation.Study(ctx, basis, req.Options())
		if err != nil {
			return nil, err
		}
		return json.Marshal(NewMCSummary(sum))
	}, "mc")
}

// handleExp runs one experiment table (?id=fig09) through the embedded
// exp suite — the batch runner served over HTTP. Tables share the
// daemon's checkpoint store and the suite's result memo across requests;
// /debug/stats republishes the suite counters.
func (s *Server) handleExp(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	run, ok := s.suite.Experiment(id)
	if !ok {
		badRequest(w, "unknown experiment id "+id)
		return
	}
	defer containPanic(nil, w, id)
	ctx, cancel := s.reqCtx(r)
	defer cancel()
	if err := s.acquire(ctx); err != nil {
		(*streamer)(nil).httpError(w, errStatus(err), newErrorBody(id, err, nil))
		return
	}
	defer s.release()

	s.suiteMu.Lock()
	table, err := run()
	s.suiteMu.Unlock()
	if err != nil && table == nil {
		(*streamer)(nil).httpError(w, errStatus(err), newErrorBody(id, err, nil))
		return
	}
	resp, _ := json.Marshal(struct {
		Table *exp.Table `json:"table"`
		Err   string     `json:"error,omitempty"`
	}{table, errString(err)})
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(resp, '\n'))
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// Stats is the /debug/stats payload. Exp and Sweep count the same
// sharing outcomes for /v1/exp tables and for the flow, sweep and MC
// endpoints respectively.
type Stats struct {
	Checkpoint sweep.StoreStats `json:"checkpoint"`
	Memo       sweep.MemoStats  `json:"memo"`
	Exp        exp.CacheStats   `json:"exp"`
	Sweep      sweep.Stats      `json:"sweep"`
	Requests   reqStats         `json:"requests"`
}

type reqStats struct {
	Accepted int64 `json:"accepted"`
	Rejected int64 `json:"rejected"`
	Inflight int64 `json:"inflight"`
	Queued   int64 `json:"queued"`
	Draining bool  `json:"draining"`
}

// StatsSnapshot collects every cache and admission counter.
func (s *Server) StatsSnapshot() Stats {
	return Stats{
		Checkpoint: s.exec.Store().Stats(),
		Memo:       s.memo.Stats(),
		Exp:        s.suite.Stats(),
		Sweep:      s.exec.Stats(),
		Requests: reqStats{
			Accepted: s.accepted.Load(),
			Rejected: s.rejected.Load(),
			Inflight: s.inflight.Load(),
			Queued:   s.queued.Load(),
			Draining: s.draining.Load(),
		},
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	body, _ := json.Marshal(s.StatsSnapshot())
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n'))
}
