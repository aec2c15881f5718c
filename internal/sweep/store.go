package sweep

import (
	"container/list"
	"context"
	"sync"

	"repro/internal/core"
)

// storeKey is the comparable identity of one checkpoint: the sharing
// class of the staged work it holds. A synthesis root is keyed by its
// SynthClass (pc zero); a placed-and-clocked prefix by its PrefixClass.
type storeKey struct {
	prefix bool
	sc     SynthClass
	pc     PrefixClass
}

// storeEntry is one cached checkpoint. Until ready closes, the entry is
// a pending build owned by the goroutine that inserted it — concurrent
// lookups of the same key coalesce by waiting on ready instead of
// building their own copy. Failed builds never stay cached: the builder
// removes the entry before closing ready, so the next lookup retries
// from scratch.
type storeEntry struct {
	key   storeKey
	ready chan struct{}
	flow  *core.Flow // set before ready closes on success
	err   error      // set before ready closes on failure

	bytes  int64 // measured footprint (core.Flow.FootprintBytes)
	costNs int64 // rebuild cost: sum of the checkpoint's StageTimes
	elem   *list.Element
}

// StoreStats is a point-in-time snapshot of the store counters. Roots
// counts the synthesis roots among the Entries.
type StoreStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Coalesced     int64 `json:"coalesced"`
	Evictions     int64 `json:"evictions"`
	Entries       int   `json:"entries"`
	Roots         int   `json:"roots"`
	ResidentBytes int64 `json:"resident_bytes"`
	BudgetBytes   int64 `json:"budget_bytes"`
}

// Store is the checkpoint store: an LRU of staged core.Flow sessions
// (synthesis roots and placed-and-clocked prefixes) keyed by sharing
// class, bounded by the measured byte footprint of the retained
// sessions. Eviction is cost-aware: among the least-recently-used tail
// it drops the entry with the worst bytes-per-rebuild-nanosecond, so a
// cheap-to-rebuild synthesis root goes before an expensive placed prefix
// of the same size. Evicted sessions stay valid for callers already
// forking off them — the store drops its reference, the garbage
// collector waits for theirs.
type Store struct {
	mu      sync.Mutex
	budget  int64
	entries map[storeKey]*storeEntry
	lru     *list.List // Front = most recently used; values are *storeEntry

	resident                           int64
	hits, misses, coalesced, evictions int64
}

// NewStore returns an empty store bounded by budgetBytes.
func NewStore(budgetBytes int64) *Store {
	return &Store{
		budget:  budgetBytes,
		entries: make(map[storeKey]*storeEntry),
		lru:     list.New(),
	}
}

// getOrBuild returns the checkpoint session for key, building it with
// build on first use. Exactly one goroutine builds a given key at a time;
// the others coalesce onto the pending build and wait for it under their
// own context (waitCtx), so a caller that gives up abandons the wait
// without disturbing the shared build. The reported hit is true when the
// session came from the store (including a coalesced wait) and false
// when this call built it.
func (c *Store) getOrBuild(waitCtx context.Context, key storeKey, build func() (*core.Flow, error)) (flow *core.Flow, hit bool, err error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		select {
		case <-e.ready:
			// Only successful, retained builds stay in the map once ready
			// closes, so e.elem is set.
			c.hits++
			c.lru.MoveToFront(e.elem)
			c.mu.Unlock()
			return e.flow, true, nil
		default:
			c.coalesced++
			c.mu.Unlock()
			select {
			case <-e.ready:
				if e.err != nil {
					return nil, false, e.err
				}
				c.mu.Lock()
				if c.entries[key] == e {
					c.lru.MoveToFront(e.elem)
				}
				c.mu.Unlock()
				return e.flow, true, nil
			case <-waitCtx.Done():
				return nil, false, waitCtx.Err()
			}
		}
	}
	e := &storeEntry{key: key, ready: make(chan struct{})}
	c.entries[key] = e
	c.misses++
	c.mu.Unlock()

	flow, err = runBuild(build)
	if err != nil {
		c.mu.Lock()
		if c.entries[key] == e {
			delete(c.entries, key)
		}
		e.err = err
		close(e.ready)
		c.mu.Unlock()
		return nil, false, err
	}
	e.flow = flow
	e.bytes = flow.FootprintBytes()
	e.costNs = checkpointCostNs(flow)
	c.mu.Lock()
	c.resident += e.bytes
	e.elem = c.lru.PushFront(e)
	close(e.ready)
	c.evictLocked()
	c.mu.Unlock()
	return flow, false, nil
}

// runBuild contains panics in a checkpoint build the way the executor
// contains point panics: a panicking stage body kills only this build.
func runBuild(build func() (*core.Flow, error)) (flow *core.Flow, err error) {
	defer func() {
		if r := recover(); r != nil {
			flow, err = nil, core.NewPanicError("sweep.checkpoint", r)
		}
	}()
	return build()
}

// evictLocked drops entries until the resident footprint fits the
// budget. The victim is chosen from the least-recently-used tail (a
// small window, so recency still dominates): the entry with the lowest
// rebuild-cost-per-byte goes first. An entry larger than the whole
// budget is evicted immediately — its waiters already hold the session
// reference, the store just declines to retain it.
func (c *Store) evictLocked() {
	const window = 4
	for c.resident > c.budget && c.lru.Len() > 0 {
		victim := c.lru.Back()
		best := victim.Value.(*storeEntry)
		bestScore := score(best)
		for el, i := victim.Prev(), 1; el != nil && i < window; el, i = el.Prev(), i+1 {
			if e := el.Value.(*storeEntry); score(e) < bestScore {
				victim, best, bestScore = el, e, score(e)
			}
		}
		c.lru.Remove(victim)
		delete(c.entries, best.key)
		best.elem = nil
		c.resident -= best.bytes
		c.evictions++
	}
}

// score ranks eviction candidates: rebuild nanoseconds bought per
// resident byte. Lower is a better victim.
func score(e *storeEntry) float64 {
	b := e.bytes
	if b <= 0 {
		b = 1
	}
	return float64(e.costNs) / float64(b)
}

// checkpointCostNs sums the stage times the checkpoint retains — the
// wall-clock a rebuild would pay again.
func checkpointCostNs(f *core.Flow) int64 {
	var total int64
	for _, d := range f.Result().StageTimes {
		total += d.Nanoseconds()
	}
	return total
}

// Stats snapshots the store counters.
func (c *Store) Stats() StoreStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := StoreStats{
		Hits:          c.hits,
		Misses:        c.misses,
		Coalesced:     c.coalesced,
		Evictions:     c.evictions,
		Entries:       len(c.entries),
		ResidentBytes: c.resident,
		BudgetBytes:   c.budget,
	}
	for k := range c.entries {
		if !k.prefix {
			st.Roots++
		}
	}
	return st
}
