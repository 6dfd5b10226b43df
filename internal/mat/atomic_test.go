package mat

import (
	"sync"
	"testing"
)

func TestAtomicVecBasics(t *testing.T) {
	v := NewAtomicVec(3)
	if v.Len() != 3 || v.Load(1) != 0 {
		t.Fatal("zero init")
	}
	v.Add(1, 2.5)
	v.Add(1, -1.25)
	if v.Load(1) != 1.25 {
		t.Fatal("add")
	}
	w := NewAtomicVecFrom([]float64{1, 2, 3})
	got := w.Snapshot(nil)
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("snapshot %v", got)
	}
	buf := make([]float64, 2)
	w.Gather(buf, []int{2, 0})
	if buf[0] != 3 || buf[1] != 1 {
		t.Fatalf("gather %v", buf)
	}
	w.ScatterAdd([]float64{10, 20}, []int{0, 2})
	if w.Load(0) != 11 || w.Load(2) != 23 {
		t.Fatal("scatter-add")
	}
}

// TestAtomicVecConcurrentAdds: the CAS loop must lose no update under
// contention (run under -race in CI).
func TestAtomicVecConcurrentAdds(t *testing.T) {
	const workers, per = 8, 10000
	v := NewAtomicVec(4)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				v.Add(i%4, 1)
			}
		}()
	}
	wg.Wait()
	total := 0.0
	for i := 0; i < 4; i++ {
		total += v.Load(i)
	}
	if total != workers*per {
		t.Fatalf("lost updates: total %v, want %d", total, workers*per)
	}
}
