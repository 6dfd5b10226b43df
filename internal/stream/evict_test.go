package stream

import "testing"

func cacheWith(used map[int]int64) *shardCache {
	c := &shardCache{entries: make(map[int]*cacheEntry), pfIdx: -1}
	for idx, u := range used {
		c.entries[idx] = &cacheEntry{used: u}
	}
	return c
}

func keys(c *shardCache) map[int]bool {
	out := make(map[int]bool, len(c.entries))
	for idx := range c.entries {
		out[idx] = true
	}
	return out
}

// Victim selection must be a pure function of (used, idx) — never of
// map iteration order. With every entry sharing one use tick, the
// lowest indices are evicted first, on every repetition (the regression
// pinned by the mapiter sweep: a tie used to be broken by whichever
// entry the map yielded first).
func TestEvictTieBreaksOnLowestIndex(t *testing.T) {
	for rep := 0; rep < 50; rep++ {
		c := cacheWith(map[int]int64{0: 7, 1: 7, 2: 7, 3: 7, 4: 7})
		c.evictLocked(-1)
		got := keys(c)
		if !got[3] || !got[4] || len(got) != 2 {
			t.Fatalf("rep %d: surviving entries %v, want {3 4}", rep, got)
		}
		if c.st.Evictions != 3 {
			t.Fatalf("rep %d: evictions = %d, want 3", rep, c.st.Evictions)
		}
	}
}

// The entry just produced is spared even when it ties as oldest.
func TestEvictSparesKeep(t *testing.T) {
	for rep := 0; rep < 50; rep++ {
		c := cacheWith(map[int]int64{0: 7, 1: 7, 2: 7, 3: 7})
		c.evictLocked(0)
		got := keys(c)
		if !got[0] || !got[3] || len(got) != 2 {
			t.Fatalf("rep %d: surviving entries %v, want {0 3}", rep, got)
		}
	}
}

// With distinct ticks the tie-break never fires and plain LRU order
// decides: oldest ticks go first regardless of index.
func TestEvictLRUOrder(t *testing.T) {
	c := cacheWith(map[int]int64{0: 40, 1: 10, 2: 30, 3: 20})
	c.evictLocked(-1)
	got := keys(c)
	if !got[0] || !got[2] || len(got) != 2 {
		t.Fatalf("surviving entries %v, want {0 2}", got)
	}
}
