package cachestore

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestMemoryByteBoundFlood: under a flood of large payloads the byte
// high-water mark stays within the configured bound — the scenario the
// serve verb's response cache faces with NDJSON streams of wildly
// varying size.
func TestMemoryByteBoundFlood(t *testing.T) {
	const maxBytes = 64 << 10
	m := NewMemorySized(0, maxBytes)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		payload := make([]byte, 1+rng.Intn(maxBytes/4))
		m.Put(fmt.Sprintf("k%d", i%64), payload) // mixes inserts and updates
		if st := m.Stats(); st.Bytes > maxBytes {
			t.Fatalf("put %d: live bytes %d exceed bound %d", i, st.Bytes, maxBytes)
		}
	}
	st := m.Stats()
	if st.PeakBytes > maxBytes {
		t.Fatalf("peak bytes %d exceed bound %d", st.PeakBytes, maxBytes)
	}
	if st.PeakBytes == 0 || st.Evictions == 0 {
		t.Fatalf("flood recorded no peak (%d) or evictions (%d)", st.PeakBytes, st.Evictions)
	}
}

// TestMemoryByteBoundDeclinesOversized: one payload larger than the
// whole bound is declined outright, leaving the cache — including a
// previous value under the same key — untouched. The bound is 400 so
// that the 40-byte entry fits its 100-byte admission limit.
func TestMemoryByteBoundDeclinesOversized(t *testing.T) {
	m := NewMemorySized(0, 400)
	m.Put("a", make([]byte, 40))
	m.Put("a", make([]byte, 800)) // declined: previous value survives
	if v, ok := m.Get("a"); !ok || len(v.([]byte)) != 40 {
		t.Fatalf("oversized update clobbered the entry: ok=%v", ok)
	}
	m.Put("big", make([]byte, 401))
	if _, ok := m.Get("big"); ok {
		t.Fatal("oversized insert was cached")
	}
	if st := m.Stats(); st.Bytes != 40 {
		t.Fatalf("live bytes %d, want 40", st.Bytes)
	}
}

// TestMemoryByteBoundUpdateEvicts: growing an existing entry evicts LRU
// entries until the bound holds again. No entry may exceed a quarter of
// the bound, so five entries are needed to overflow it.
func TestMemoryByteBoundUpdateEvicts(t *testing.T) {
	m := NewMemorySized(0, 100)
	for _, k := range []string{"a", "b", "c", "d"} {
		m.Put(k, make([]byte, 20))
	}
	m.Put("e", make([]byte, 15))
	m.Put("e", make([]byte, 25)) // grows e to 105 live bytes; must evict a
	if _, ok := m.Get("a"); ok {
		t.Fatal("a survived an update-path eviction")
	}
	if v, ok := m.Get("e"); !ok || len(v.([]byte)) != 25 {
		t.Fatal("grown entry e missing")
	}
	if st := m.Stats(); st.Bytes != 85 || st.Evictions != 1 {
		t.Fatalf("stats %+v, want 85 bytes and 1 eviction", st)
	}
}

// TestMemoryAdmitFractionDeclines: a payload larger than admitFraction ×
// maxBytes is declined even though it would fit the byte bound, and the
// hot set it would have displaced survives.
func TestMemoryAdmitFractionDeclines(t *testing.T) {
	m := NewMemorySized(0, 1000)
	for i := 0; i < 8; i++ {
		m.Put(fmt.Sprintf("hot%d", i), make([]byte, 100))
	}
	m.Put("huge", make([]byte, 600)) // fits maxBytes, exceeds 0.25*1000
	if _, ok := m.Get("huge"); ok {
		t.Fatal("payload above the admission limit was cached")
	}
	for i := 0; i < 8; i++ {
		if _, ok := m.Get(fmt.Sprintf("hot%d", i)); !ok {
			t.Fatalf("hot%d was evicted by a declined payload", i)
		}
	}
	if st := m.Stats(); st.Bytes != 800 || st.Evictions != 0 {
		t.Fatalf("stats %+v, want 800 bytes and 0 evictions", st)
	}
}

// TestMemoryAdmitFractionBoundary: a payload exactly at the admission
// limit is admitted; one byte more is declined. A declined update leaves
// the previous value under the key untouched. An unbounded tier has no
// limit, and a tiny one still admits a byte.
func TestMemoryAdmitFractionBoundary(t *testing.T) {
	m := NewMemorySized(0, 1000)
	m.Put("at", make([]byte, 250))
	if v, ok := m.Get("at"); !ok || len(v.([]byte)) != 250 {
		t.Fatal("payload at the admission limit was declined")
	}
	m.Put("at", make([]byte, 251)) // declined: previous value survives
	if v, ok := m.Get("at"); !ok || len(v.([]byte)) != 250 {
		t.Fatalf("declined update clobbered the entry: ok=%v", ok)
	}
	// Unbounded bytes admit everything.
	m = NewMemorySized(0, 0)
	m.Put("big", make([]byte, 1<<20))
	if _, ok := m.Get("big"); !ok {
		t.Fatal("unbounded cache declined a payload")
	}
	// Tiny budgets never round the admission limit down to zero.
	m = NewMemorySized(0, 2)
	m.Put("one", make([]byte, 1))
	if _, ok := m.Get("one"); !ok {
		t.Fatal("1-byte payload declined under a tiny budget")
	}
}

// TestMemoryByteBoundKeepsNewest: the most recently used entry is never
// evicted, even when it brings the tier past the bound and the oldest
// entry has to go for it.
func TestMemoryByteBoundKeepsNewest(t *testing.T) {
	m := NewMemorySized(0, 100)
	m.Put("a", make([]byte, 20))
	for _, k := range []string{"b", "c", "d"} {
		m.Put(k, make([]byte, 25))
	}
	m.Put("e", make([]byte, 25)) // 120 live bytes: evicts a, keeps e
	if _, ok := m.Get("e"); !ok {
		t.Fatal("newest entry evicted")
	}
	if _, ok := m.Get("a"); ok {
		t.Fatal("oldest entry survived")
	}
	if st := m.Stats(); st.Entries != 4 || st.Bytes != 100 {
		t.Fatalf("stats %+v, want 4 entries of 100 bytes", st)
	}
}
