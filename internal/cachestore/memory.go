package cachestore

import (
	"container/list"
	"sync"
)

// Memory is a size-bounded in-process LRU cache over arbitrary values.
// It is the default engine memo store (where it holds live prepared
// analyses) and the front tier of the service's result cache.
type Memory struct {
	mu       sync.Mutex
	cap      int
	maxBytes int64
	admit    int64      // largest admissible single payload (0 = unbounded)
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	stats    Stats
}

type memEntry struct {
	key string
	val any
}

// NewMemory returns a memory backend holding at most capacity entries;
// capacity <= 0 is unbounded. When full, Put evicts the least recently
// used entry.
func NewMemory(capacity int) *Memory {
	return NewMemorySized(capacity, 0)
}

// admitFraction bounds any single payload of a byte-bounded memory tier
// to this fraction of its byte budget. One oversized entry would
// otherwise push out many small hot ones whose aggregate hit value
// exceeds its own — the classic cache-pollution trade — so it is
// declined outright instead (a disk tier behind still takes it).
const admitFraction = 0.25

// NewMemorySized returns a memory backend bounded both by entry count
// (capacity <= 0: unbounded) and by payload bytes (maxBytes <= 0:
// unbounded). The byte bound counts []byte payloads only, like
// Stats.Bytes. A single payload larger than admitFraction × maxBytes is
// declined rather than admitted by evicting a large slice of the tier;
// declined payloads are counted as Puts and leave the cache, including
// any previous value under the key, untouched.
func NewMemorySized(capacity int, maxBytes int64) *Memory {
	m := &Memory{
		cap:      capacity,
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    map[string]*list.Element{},
	}
	if maxBytes > 0 {
		m.admit = max(int64(admitFraction*float64(maxBytes)), 1)
	}
	return m
}

// Cap returns the entry bound (0 = unbounded).
//
//paralint:testonly the CLI's serve tests check the default result-cache bound
func (m *Memory) Cap() int {
	if m.cap <= 0 {
		return 0
	}
	return m.cap
}

// Get returns the value cached under key, marking it most recently used.
func (m *Memory) Get(key string) (any, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.items[key]
	if !ok {
		m.stats.Misses++
		return nil, false
	}
	m.ll.MoveToFront(el)
	m.stats.Hits++
	return el.Value.(*memEntry).val, true
}

// Put stores val under key, evicting least recently used entries until
// both the capacity and byte bounds hold again (updates that grow an
// entry evict too). A payload that alone exceeds the admission limit,
// admitFraction × maxBytes, is declined: the cache, including any
// previous value under the key, stays as it is.
func (m *Memory) Put(key string, val any) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.Puts++
	if m.admit > 0 && sizeOf(val) > m.admit {
		return
	}
	if el, ok := m.items[key]; ok {
		ent := el.Value.(*memEntry)
		m.stats.Bytes += sizeOf(val) - sizeOf(ent.val)
		ent.val = val
		m.ll.MoveToFront(el)
		m.evictLocked()
		return
	}
	m.items[key] = m.ll.PushFront(&memEntry{key: key, val: val})
	m.stats.Bytes += sizeOf(val)
	m.evictLocked()
}

// evictLocked drops LRU entries until both bounds hold, then refreshes
// the high-water marks. The most recently used entry is never evicted
// (oversized payloads were declined before insertion, so the bounds are
// always reachable without it).
func (m *Memory) evictLocked() {
	for m.ll.Len() > 1 &&
		((m.cap > 0 && m.ll.Len() > m.cap) || (m.maxBytes > 0 && m.stats.Bytes > m.maxBytes)) {
		oldest := m.ll.Back()
		ent := oldest.Value.(*memEntry)
		m.ll.Remove(oldest)
		delete(m.items, ent.key)
		m.stats.Bytes -= sizeOf(ent.val)
		m.stats.Evictions++
	}
	m.stats.Entries = m.ll.Len()
	if m.stats.Entries > m.stats.Peak {
		m.stats.Peak = m.stats.Entries
	}
	if m.stats.Bytes > m.stats.PeakBytes {
		m.stats.PeakBytes = m.stats.Bytes
	}
}

// Stats returns the backend's counters.
func (m *Memory) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.stats
	st.Entries = m.ll.Len()
	return st
}

// Reset drops every entry while keeping the statistics counters.
func (m *Memory) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ll = list.New()
	m.items = map[string]*list.Element{}
	m.stats.Entries = 0
	m.stats.Bytes = 0
}

// Close drops every entry.
func (m *Memory) Close() error {
	m.Reset()
	return nil
}

func sizeOf(val any) int64 {
	if b, ok := val.([]byte); ok {
		return int64(len(b))
	}
	return 0
}
