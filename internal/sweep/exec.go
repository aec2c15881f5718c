package sweep

import (
	"cmp"
	"context"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/netlist"
	"repro/internal/tech"
)

// Stats counts an executor's sharing outcomes: synthesis-root lookups
// made while building prefixes, chain hops that stayed on the synth-diff
// path or fell back to the full pipeline, and chain heads forked off a
// placed-and-clocked prefix.
type Stats struct {
	RootHits       int64 `json:"root_hits"`
	RootMisses     int64 `json:"root_misses"`
	DiffForks      int64 `json:"diff_forks"`
	DiffFallbacks  int64 `json:"diff_fallbacks"`
	FullSynthForks int64 `json:"full_synth_forks"`
}

// Executor runs plans against one checkpoint store. It is safe for
// concurrent use; every Execute call shares its store and counters.
type Executor struct {
	store   *Store
	netlist func(tech.Arch) *netlist.Netlist
	mu      sync.Mutex
	stats   Stats
}

// NewExecutor returns an executor over store that opens synthesis roots
// on the pre-synthesis netlist nl(arch).
func NewExecutor(store *Store, nl func(tech.Arch) *netlist.Netlist) *Executor {
	return &Executor{store: store, netlist: nl}
}

// Store returns the executor's checkpoint store.
func (x *Executor) Store() *Store { return x.store }

// Stats snapshots the executor counters.
func (x *Executor) Stats() Stats {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.stats
}

// count adds one to the counter *yes when ok, else to *no.
func (x *Executor) count(ok bool, yes, no *int64) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if ok {
		*yes++
	} else {
		*no++
	}
}

// Event is one progress report of a running plan. Point is the first
// input index of the run. A checkpoint event sets Kind ("memo", "synth",
// "prefix" or "synthdiff") and Hit; a stage event sets Stage and Dur.
type Event struct {
	Point int
	Kind  string
	Hit   bool
	Stage core.Stage
	Dur   time.Duration
}

// Result is the outcome of one input point: its value, or its classified
// error together with the partially-run session (nil when the point died
// before it had one).
type Result[V any] struct {
	Value   V
	Err     error
	Partial *core.Flow
}

// Job is one plan plus the caller's policies.
type Job[V any] struct {
	Plan *Plan
	// Memo, when non-nil, answers exact-config repeats and memoizes
	// every computed value.
	Memo *Memo[V]
	// Finish turns a completed (or halted) leaf session into the value.
	Finish func(leaf *core.Flow) (V, error)
	// Scratch runs every point as a fresh session: no checkpoints, no
	// chains. It is the unshared reference the differential tests and
	// benchmarks compare sharing against.
	Scratch bool
	// BuildCtx bounds shared checkpoint builds; nil uses the Execute
	// context. A build outlives the caller that started it when BuildCtx
	// does, so a vanished caller still leaves the checkpoint behind.
	BuildCtx context.Context

	// Acquire, when non-nil, admits each point before it runs (Release
	// frees the slot after it).
	Acquire func(context.Context) error
	Release func()
	// Event, when non-nil, receives progress events.
	Event func(Event)
	// Done, when non-nil, receives each input slot's result as soon as
	// its run resolves.
	Done func(slot int, r Result[V])
}

// prefixCell resolves one prefix class once per plan. The checkpoint it
// holds lives as long as the plan, whatever the store evicts meanwhile,
// and a failed build fails every head of the class with one error.
type prefixCell struct {
	once sync.Once
	flow *core.Flow
	hit  bool
	err  error
}

type run[V any] struct {
	x        *Executor
	j        *Job[V]
	ctx      context.Context
	buildCtx context.Context
	prefixes sync.Map // PrefixClass -> *prefixCell
}

// Execute runs the plan and returns one result per input point. Every
// chain runs on its own goroutine: a head forks its prefix checkpoint,
// each later hop diff-forks its completed predecessor, and every leaf is
// driven stage by stage under ctx. Failures are contained per point — a
// dead point (hard error, contained panic, cancellation) never stops the
// rest of its chain, and is never memoized.
func Execute[V any](ctx context.Context, x *Executor, j Job[V]) []Result[V] {
	r := &run[V]{x: x, j: &j, ctx: ctx, buildCtx: cmp.Or(j.BuildCtx, ctx)}
	if j.Event == nil {
		j.Event = func(Event) {}
	}
	out := make([]Result[V], j.Plan.slots)
	var wg sync.WaitGroup
	for _, chain := range j.Plan.Chains {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prev *core.Flow
			for _, i := range chain {
				var res Result[V]
				prev = r.point(i, prev, &res)
				for _, slot := range j.Plan.Uniques[i].Slots {
					out[slot] = res
					if j.Done != nil {
						j.Done(slot, res)
					}
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// point runs Uniques[i] and returns the session the chain's next hop
// forks from: the completed leaf, prev unchanged on a memo hit, or nil
// when the point died.
func (r *run[V]) point(i int, prev *core.Flow, out *Result[V]) (next *core.Flow) {
	u := &r.j.Plan.Uniques[i]
	name, pt := u.Cfg.Name, u.Slots[0]
	fail := func(err error, partial *core.Flow) *core.Flow {
		out.Err, out.Partial = core.Classify(name, err), partial
		return nil
	}
	defer func() {
		if rec := recover(); rec != nil {
			next = fail(core.NewPanicError(name, rec), nil)
		}
	}()
	if r.j.Acquire != nil {
		if err := r.j.Acquire(r.ctx); err != nil {
			return fail(err, nil)
		}
		defer r.j.Release()
	}
	if m := r.j.Memo; m != nil {
		if err := faultinject.Fire("sweep.memo"); err != nil {
			return fail(err, nil)
		}
		if v, ok := m.Get(u.Key); ok {
			r.j.Event(Event{Point: pt, Kind: "memo", Hit: true})
			out.Value = v
			return prev
		}
	}
	if err := faultinject.Fire("sweep.leaf"); err != nil {
		return fail(err, nil)
	}
	leaf, err := r.fork(u, prev)
	if err != nil {
		return fail(err, nil)
	}
	for st := leaf.NextStage(); int(st) < core.NumStages && !leaf.Halted(); st = leaf.NextStage() {
		t0 := time.Now()
		if err := leaf.RunToCtx(r.ctx, st); err != nil {
			return fail(err, leaf)
		}
		r.j.Event(Event{Point: pt, Stage: st, Dur: time.Since(t0)})
	}
	v, err := r.j.Finish(leaf)
	if err != nil {
		return fail(err, leaf)
	}
	if r.j.Memo != nil {
		v = r.j.Memo.Put(u.Key, v)
	}
	out.Value = v
	return leaf
}

// fork opens the point's leaf session: a fresh session under Scratch, a
// synth-diff fork of the chain predecessor when there is one, else a
// fork of the point's placed-and-clocked prefix. A hard diff-fork
// failure (race, cancellation) falls through to the prefix path, which
// classifies its own errors.
func (r *run[V]) fork(u *Unique, prev *core.Flow) (*core.Flow, error) {
	cfg := u.Cfg
	adopt := func(c *core.FlowConfig) { *c = cfg }
	if r.j.Scratch {
		return core.NewFlow(r.x.netlist(u.Arch), cfg)
	}
	if prev != nil {
		if child, st, err := prev.ForkSynthDiffCtx(r.ctx, adopt); err == nil {
			r.x.count(st.DiffPath, &r.x.stats.DiffForks, &r.x.stats.DiffFallbacks)
			r.j.Event(Event{Point: u.Slots[0], Kind: "synthdiff", Hit: st.DiffPath})
			return child, nil
		}
	}
	sc, pc := ClassKeys(u.Arch, cfg)
	c, _ := r.prefixes.LoadOrStore(pc, &prefixCell{})
	cell, reused := c.(*prefixCell), true
	cell.once.Do(func() {
		reused = false
		cell.flow, cell.hit, cell.err = r.buildPrefix(u, sc, pc)
		if cell.err != nil {
			cell.err = core.Classify(cfg.Name, cell.err)
		}
	})
	r.j.Event(Event{Point: u.Slots[0], Kind: "prefix", Hit: reused || cell.hit})
	if cell.err != nil {
		return nil, cell.err
	}
	r.x.mu.Lock()
	r.x.stats.FullSynthForks++
	r.x.mu.Unlock()
	return cell.flow.Fork(adopt)
}

// buildPrefix resolves the prefix checkpoint of pc through the store,
// building it on a miss as a fork of the class's synthesis root run
// through StageCTS. Both builds run under the build context, and the
// root wait inside a prefix build does too: the build must not die with
// the caller that happened to start it while others wait on it.
func (r *run[V]) buildPrefix(u *Unique, sc SynthClass, pc PrefixClass) (*core.Flow, bool, error) {
	return r.x.store.getOrBuild(r.ctx, storeKey{prefix: true, sc: sc, pc: pc}, func() (*core.Flow, error) {
		if err := faultinject.Fire("sweep.prefix"); err != nil {
			return nil, err
		}
		root, hit, err := r.x.store.getOrBuild(r.buildCtx, storeKey{sc: sc}, func() (*core.Flow, error) {
			if err := faultinject.Fire("sweep.synthroot"); err != nil {
				return nil, err
			}
			f, err := core.NewFlow(r.x.netlist(u.Arch), sc.rootConfig())
			if err != nil {
				return nil, err
			}
			return f, f.RunToCtx(r.buildCtx, core.StageSynth)
		})
		r.x.count(hit, &r.x.stats.RootHits, &r.x.stats.RootMisses)
		r.j.Event(Event{Point: u.Slots[0], Kind: "synth", Hit: hit})
		if err != nil {
			return nil, err
		}
		pcfg := pc.config()
		f, err := root.Fork(func(c *core.FlowConfig) { *c = pcfg })
		if err != nil {
			return nil, err
		}
		return f, f.RunToCtx(r.buildCtx, core.StageCTS)
	})
}
