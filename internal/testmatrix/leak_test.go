package testmatrix

import (
	"strings"
	"testing"
	"time"
)

// plantedLeak parks until release closes: a stand-in for a reader or
// rank goroutine that nothing shuts down.
func plantedLeak(release <-chan struct{}) { <-release }

func TestLeakedNamesAPlantedGoroutine(t *testing.T) {
	release, done := make(chan struct{}), make(chan struct{})
	go func() {
		plantedLeak(release)
		close(done)
	}()
	names := func(stacks []string) bool {
		for _, s := range stacks {
			if strings.Contains(s, "testmatrix.plantedLeak(") {
				return true
			}
		}
		return false
	}
	if leaked := leakedGoroutines(20 * time.Millisecond); !names(leaked) {
		t.Fatalf("planted goroutine not reported; got %d stacks:\n%s", len(leaked), strings.Join(leaked, "\n\n"))
	}
	close(release)
	<-done
	if leaked := leakedGoroutines(200 * time.Millisecond); names(leaked) {
		t.Fatalf("finished goroutine still reported:\n%s", strings.Join(leaked, "\n\n"))
	}
}

func TestLeakAllowlistMatchesFrames(t *testing.T) {
	pool := "goroutine 7 [chan receive]:\nsaco/internal/runtime.(*Pool).worker(0xc000010000, 0x1)\n\t/src/pool.go:135 +0x4c\ncreated by saco/internal/runtime.(*Pool).ensure in goroutine 1"
	if !allowedGoroutine(pool) {
		t.Fatal("pool worker not allowlisted")
	}
	spawner := "goroutine 8 [running]:\nsaco/internal/mpi.reader()\n\t/src/r.go:1 +0x1\ncreated by saco/internal/runtime.(*Pool).worker in goroutine 7"
	if allowedGoroutine(spawner) {
		t.Fatal("a goroutine merely created by a pool worker must not be allowlisted")
	}
}
