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
	loop := "goroutine 7 [syscall]:\nos/signal.signal_recv()\n\t/go/src/runtime/sigqueue.go:152 +0x29\nos/signal.loop()\n\t/go/src/os/signal/signal_unix.go:23 +0x13\ncreated by os/signal.Notify.func1.1 in goroutine 1"
	if !allowedGoroutine(loop) {
		t.Fatal("signal loop not allowlisted")
	}
	spawned := "goroutine 8 [running]:\nsaco/internal/mpi.reader()\n\t/src/r.go:1 +0x1\ncreated by os/signal.loop in goroutine 7"
	if allowedGoroutine(spawned) {
		t.Fatal("a goroutine merely created by the signal loop must not be allowlisted")
	}
	helper := "goroutine 9 [running]:\nsaco/internal/runtime.run(0xc000010000, 0x1)\n\t/src/fork.go:90 +0x4c\ncreated by saco/internal/runtime.For in goroutine 1"
	if allowedGoroutine(helper) {
		t.Fatal("a kernel helper outliving its region must be reported")
	}
}
