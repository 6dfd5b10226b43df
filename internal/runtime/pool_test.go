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
			for _, minChunk := range []int{1, 3, 64} {
				hits := make([]int32, n)
				For(w, n, minChunk, func(lo, hi int) {
					if lo < 0 || hi > n || lo >= hi {
						t.Errorf("w=%d n=%d mc=%d: bad range [%d,%d)", w, n, minChunk, lo, hi)
						return
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("w=%d n=%d mc=%d: index %d visited %d times", w, n, minChunk, i, h)
					}
				}
			}
		}
	}
}

// TestForMinChunkRespected: no chunk smaller than minChunk unless it is
// the whole (short) tail or the whole range.
func TestForMinChunkRespected(t *testing.T) {
	n, minChunk := 1000, 128
	var minSeen atomic.Int64
	minSeen.Store(int64(n))
	For(8, n, minChunk, func(lo, hi int) {
		sz := int64(hi - lo)
		for {
			cur := minSeen.Load()
			if sz >= cur || minSeen.CompareAndSwap(cur, sz) {
				break
			}
		}
	})
	// n/minChunk = 7 executors max, chunk = ceil(1000/7) = 143 > 128.
	if minSeen.Load() < int64(minChunk)/2 {
		t.Fatalf("chunk of %d items; minChunk %d", minSeen.Load(), minChunk)
	}
}

// TestForInlineWhenNarrow: width 1 (or tiny n) must run on the calling
// goroutine with a single body call.
func TestForInlineWhenNarrow(t *testing.T) {
	calls := 0
	For(1, 100, 1, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 100 {
			t.Fatalf("inline range [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("%d body calls inline", calls)
	}
	calls = 0
	For(8, 10, 100, func(lo, hi int) { calls++ }) // n < minChunk
	if calls != 1 {
		t.Fatalf("%d body calls for sub-chunk n", calls)
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

// TestNestedForNoDeadlock: a body that itself calls For must complete
// even when the pool is saturated — the caller always participates.
func TestNestedForNoDeadlock(t *testing.T) {
	var total atomic.Int64
	For(4, 8, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			For(4, 100, 1, func(l, h int) {
				total.Add(int64(h - l))
			})
		}
	})
	if total.Load() != 800 {
		t.Fatalf("nested total = %d", total.Load())
	}
}

// TestNestedForFreshPoolNoDeadlock is the regression test for the
// cooperative join: on a fresh pool (no idle workers left over from
// other regions) every outer executor nests another For, so each one
// must drain its own queued entries instead of waiting for a worker
// that is itself parked in a join. Before the cooperative join this
// deadlocked whenever live workers < outer width.
func TestNestedForFreshPoolNoDeadlock(t *testing.T) {
	p := NewPool()
	var total atomic.Int64
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		p.For(4, 8, 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				p.For(4, 100, 1, func(l, h int) {
					total.Add(int64(h - l))
				})
			}
		})
	}()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("nested For on a fresh pool deadlocked")
	}
	if total.Load() != 800 {
		t.Fatalf("nested total = %d", total.Load())
	}
}

// TestDeeplyNestedFreshPool grounds the join through three levels of
// nesting with contention from parallel outer callers.
func TestDeeplyNestedFreshPool(t *testing.T) {
	p := NewPool()
	var total atomic.Int64
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.For(3, 6, 1, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						p.For(3, 9, 1, func(l, h int) {
							for k := l; k < h; k++ {
								p.For(2, 10, 1, func(a, b int) {
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

// TestConcurrentRegions hammers one pool from many goroutines to shake
// out descriptor-recycling races (run under -race in CI).
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
				For(3, n, 1, func(lo, hi int) {
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

// TestWorkersPersist: repeated regions must reuse parked workers, not
// spawn per call.
func TestWorkersPersist(t *testing.T) {
	p := NewPool()
	for i := 0; i < 100; i++ {
		p.For(4, 1000, 1, func(lo, hi int) {})
	}
	if w := p.Workers(); w > 3 {
		t.Fatalf("pool spawned %d workers for width-4 regions", w)
	}
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

func BenchmarkDispatchTinyRegions(b *testing.B) {
	// The pool's reason to exist: back-to-back small regions. Compare
	// against a per-call goroutine implementation by history.
	x := make([]float64, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		For(4, len(x), 256, func(lo, hi int) {
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
				For(w, len(x), 1024, func(lo, hi int) {
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
			For(w, n, 1, func(lo, hi int) {
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

// TestForAffinityCoversExactlyOnce stresses the taken-flag claim path:
// repeated regions at widths around the chunk count must still visit
// every index exactly once even when affinity claims and counter steals
// race.
func TestForAffinityCoversExactlyOnce(t *testing.T) {
	const n = 1024
	for iter := 0; iter < 200; iter++ {
		w := 2 + iter%7
		hits := make([]int32, n)
		For(w, n, 8, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("iter=%d w=%d: index %d visited %d times", iter, w, i, h)
			}
		}
	}
}
