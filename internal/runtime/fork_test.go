package runtime

import (
	"fmt"
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestForCoversRangeExactlyOnce checks every index is visited exactly
// once for a grid of sizes and widths, including widths far beyond n.
func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, w := range []int{0, 1, 2, 3, 7, 16, 100} {
		for _, n := range []int{0, 1, 2, 5, 63, 64, 65, 1000} {
			hits := make([]int32, n)
			For(w, n, func(lo, hi int) {
				if lo < 0 || hi > n || lo >= hi {
					t.Errorf("w=%d n=%d: bad range [%d,%d)", w, n, lo, hi)
					return
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("w=%d n=%d: index %d visited %d times", w, n, i, h)
				}
			}
		}
	}
}

// TestWidthWorkRule: a region runs inline up to and at the threshold,
// every executor of a forked one gets at least minWork entries, and no
// region gets more executors than requested or than hardCap. The cap
// is checked on the returned width alone; nothing is spawned.
func TestWidthWorkRule(t *testing.T) {
	for _, tc := range []struct {
		name    string
		w, work int
		want    int
	}{
		{"nothing", 4, 0, 1},
		{"below", 4, minWork - 1, 1},
		{"at", 4, minWork, 1},
		{"just above", 4, minWork + 1, 1},
		{"two shares", 4, 2 * minWork, 2},
		{"three shares and change", 4, 3*minWork + minWork/2, 3},
		{"more than requested", 4, 100 * minWork, 4},
		{"sequential request", 1, 100 * minWork, 1},
		{"cap", 1 << 20, 1 << 40, hardCap},
		{"cap by work", 1 << 20, hardCap*minWork - 1, hardCap - 1},
	} {
		if got := Width(tc.w, tc.work); got != tc.want {
			t.Errorf("%s: Width(%d, %d) = %d, want %d", tc.name, tc.w, tc.work, got, tc.want)
		}
	}
	if got, want := Width(0, 1<<40), min(Resolve(0), hardCap); got != want {
		t.Errorf("Width(0, 2^40) = %d, want GOMAXPROCS-resolved %d", got, want)
	}
}

// TestForMinChunkRespected: a region the work rule grants three
// executors runs as three chunks of about a third each — every
// executor carries its minWork share.
func TestForMinChunkRespected(t *testing.T) {
	const n = 1000
	var mu sync.Mutex
	var sizes []int
	For(Width(8, 3*minWork+1), n, func(lo, hi int) {
		mu.Lock()
		sizes = append(sizes, hi-lo)
		mu.Unlock()
	})
	if len(sizes) != 3 {
		t.Fatalf("%d chunks %v, want 3", len(sizes), sizes)
	}
	for _, sz := range sizes {
		if sz < n/3-cacheLineItems {
			t.Fatalf("chunks %v: one holds less than a third of the work", sizes)
		}
	}
}

// TestForInlineWhenNarrow: width 1, a region below the work rule's
// threshold and a one-item region run on the calling goroutine with a
// single body call.
func TestForInlineWhenNarrow(t *testing.T) {
	for _, tc := range []struct{ w, n int }{{1, 100}, {Width(8, minWork-1), 10}, {8, 1}} {
		calls := 0
		For(tc.w, tc.n, func(lo, hi int) {
			calls++
			if lo != 0 || hi != tc.n {
				t.Fatalf("w=%d n=%d: inline range [%d,%d)", tc.w, tc.n, lo, hi)
			}
		})
		if calls != 1 {
			t.Fatalf("w=%d n=%d: %d body calls inline", tc.w, tc.n, calls)
		}
	}
}

// TestRangesCoversBounds verifies every nonempty range runs exactly once.
func TestRangesCoversBounds(t *testing.T) {
	bounds := []int{0, 10, 10, 35, 80, 100}
	var mu sync.Mutex
	got := map[[2]int]int{}
	Ranges(bounds, func(lo, hi int) {
		mu.Lock()
		got[[2]int{lo, hi}]++
		mu.Unlock()
	})
	want := [][2]int{{0, 10}, {10, 35}, {35, 80}, {80, 100}}
	if len(got) != len(want) {
		t.Fatalf("ranges executed: %v", got)
	}
	for _, r := range want {
		if got[r] != 1 {
			t.Fatalf("range %v executed %d times", r, got[r])
		}
	}
}

// TestNestedForNoDeadlock: a body that itself calls For completes —
// every region forks its own helpers.
func TestNestedForNoDeadlock(t *testing.T) {
	var total atomic.Int64
	For(4, 8, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			For(4, 100, func(l, h int) {
				total.Add(int64(h - l))
			})
		}
	})
	if total.Load() != 800 {
		t.Fatalf("nested total = %d", total.Load())
	}
}

// TestDeeplyNestedFor joins three levels of nesting under contention
// from parallel outer callers.
func TestDeeplyNestedFor(t *testing.T) {
	var total atomic.Int64
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				For(3, 6, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						For(3, 9, func(l, h int) {
							for k := l; k < h; k++ {
								For(2, 10, func(a, b int) {
									total.Add(int64(b - a))
								})
							}
						})
					}
				})
			}()
		}
		wg.Wait()
	}()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("deeply nested For deadlocked")
	}
	if want := int64(4 * 6 * 9 * 10); total.Load() != want {
		t.Fatalf("total = %d, want %d", total.Load(), want)
	}
}

// TestConcurrentRegions runs regions from many goroutines at once
// (run under -race in CI).
func TestConcurrentRegions(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 50; it++ {
				n := 100 + (g+it)%57
				sum := int64(0)
				var asum atomic.Int64
				For(3, n, func(lo, hi int) {
					s := int64(0)
					for i := lo; i < hi; i++ {
						s += int64(i)
					}
					asum.Add(s)
				})
				sum = int64(n*(n-1)) / 2
				if asum.Load() != sum {
					t.Errorf("g=%d it=%d: sum %d want %d", g, it, asum.Load(), sum)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestResolveTracksGOMAXPROCS is the satellite fix: widths requested as
// 0 must follow GOMAXPROCS at call time, not at package init.
func TestResolveTracksGOMAXPROCS(t *testing.T) {
	old := stdruntime.GOMAXPROCS(0)
	defer stdruntime.GOMAXPROCS(old)
	stdruntime.GOMAXPROCS(3)
	if got := Resolve(0); got != 3 {
		t.Fatalf("Resolve(0) = %d after GOMAXPROCS(3)", got)
	}
	stdruntime.GOMAXPROCS(old)
	if got := Resolve(0); got != old {
		t.Fatalf("Resolve(0) = %d after restore", got)
	}
	if got := Resolve(5); got != 5 {
		t.Fatalf("Resolve(5) = %d", got)
	}
}

// TestTriangleRanges checks coverage and monotonicity of the triangular
// partitioner for a grid of sizes, and that a large triangle's parts
// hold pair counts within 2x of each other.
func TestTriangleRanges(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64, 1000} {
		for _, parts := range []int{1, 2, 3, 8, n + 5} {
			b := TriangleRanges(n, parts)
			if b[0] != 0 || b[len(b)-1] != n {
				t.Fatalf("n=%d parts=%d: bounds %v", n, parts, b)
			}
			for i := 1; i < len(b); i++ {
				if b[i] < b[i-1] {
					t.Fatalf("n=%d parts=%d: non-monotone %v", n, parts, b)
				}
			}
		}
	}
	const n = 1000
	b := TriangleRanges(n, 8)
	minP, maxP := 1<<30, 0
	for i := 1; i < len(b); i++ {
		lo, hi := b[i-1], b[i]
		p := (hi-lo)*n - (hi*(hi-1)-lo*(lo-1))/2
		minP, maxP = min(minP, p), max(maxP, p)
	}
	if maxP > 2*minP {
		t.Fatalf("triangle partition imbalance %d/%d", maxP, minP)
	}
}

// BenchmarkForkEmpty is the price of one forked region: an empty body
// at width 2, the helper goroutine and the join. minWork comes from it.
func BenchmarkForkEmpty(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		For(2, 2, func(lo, hi int) {})
	}
}

func BenchmarkDispatchTinyRegions(b *testing.B) {
	// Back-to-back small regions forced to fork: the dispatch cost the
	// work rule keeps off the solvers' per-iteration blocks.
	x := make([]float64, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		For(4, len(x), func(lo, hi int) {
			for k := lo; k < hi; k++ {
				x[k] += 1
			}
		})
	}
}

func BenchmarkDispatchWidths(b *testing.B) {
	x := make([]float64, 1<<16)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				For(w, len(x), func(lo, hi int) {
					for k := lo; k < hi; k++ {
						x[k] += 1
					}
				})
			}
		})
	}
}

// TestForChunkAlignment: every chunk boundary (except 0 and n) falls on
// a cache-line multiple once chunks exceed one line, so adjacent
// executors never write the same 64-byte line of an output vector.
func TestForChunkAlignment(t *testing.T) {
	// n/w > cacheLineItems throughout; smaller chunks stay unaligned by
	// design (rounding them up would serialize the region).
	for _, w := range []int{2, 3, 5, 8, 16} {
		for _, n := range []int{200, 1000, 4097} {
			var mu sync.Mutex
			var bounds []int
			For(w, n, func(lo, hi int) {
				mu.Lock()
				bounds = append(bounds, lo, hi)
				mu.Unlock()
			})
			for _, b := range bounds {
				if b == 0 || b == n {
					continue
				}
				if b%cacheLineItems != 0 {
					t.Fatalf("w=%d n=%d: boundary %d not a multiple of %d", w, n, b, cacheLineItems)
				}
			}
		}
	}
}
