package sweep

import (
	"container/list"
	"sync"
)

// MemoStats is a point-in-time snapshot of a memo's counters.
type MemoStats struct {
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Evictions  int64 `json:"evictions"`
	Entries    int   `json:"entries"`
	MaxEntries int   `json:"max_entries"`
}

// Memo is the exact-config result memo: completed values keyed by
// RunKey, bounded by an entry-count LRU. Values are small (a result
// struct or a marshaled summary), so a count bound suffices where the
// checkpoint store needs measured bytes. Failures are never memoized.
type Memo[V any] struct {
	mu      sync.Mutex
	max     int
	entries map[RunKey]*list.Element
	lru     list.List // Front = most recent; values are memoEntry[V]
	stats   MemoStats
}

type memoEntry[V any] struct {
	key RunKey
	val V
}

// NewMemo returns an empty memo holding at most maxEntries values.
func NewMemo[V any](maxEntries int) *Memo[V] {
	return &Memo[V]{max: maxEntries, entries: make(map[RunKey]*list.Element)}
}

// Get returns the memoized value of key, counting the hit or miss.
func (m *Memo[V]) Get(key RunKey) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.entries[key]
	if !ok {
		m.stats.Misses++
		var zero V
		return zero, false
	}
	m.stats.Hits++
	m.lru.MoveToFront(el)
	return el.Value.(memoEntry[V]).val, true
}

// Put memoizes val under key and returns the memoized value: the first
// writer wins, so concurrent runs of one config agree on one value.
func (m *Memo[V]) Put(key RunKey, val V) V {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.entries[key]; ok {
		return el.Value.(memoEntry[V]).val
	}
	m.entries[key] = m.lru.PushFront(memoEntry[V]{key: key, val: val})
	for len(m.entries) > m.max {
		back := m.lru.Back()
		delete(m.entries, back.Value.(memoEntry[V]).key)
		m.lru.Remove(back)
		m.stats.Evictions++
	}
	return val
}

// Stats snapshots the memo counters.
func (m *Memo[V]) Stats() MemoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.stats
	st.Entries, st.MaxEntries = len(m.entries), m.max
	return st
}
