package testmatrix

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// leakGrace is how long a goroutine already on its way out (a reader
// seeing its connection close, a rank returning) gets to finish before
// the leak check counts it.
const leakGrace = 2 * time.Second

// leakAllowed names the functions whose goroutines may outlive a
// package's tests, by design for the life of the process: the signal
// loop os/signal starts (the fuzzing engine calls signal.Notify).
var leakAllowed = []string{
	"os/signal.loop(",
}

// RunLeakChecked runs m and, when every test passed, fails the binary
// if any goroutine besides the caller and the allowlisted ones is still
// alive after leakGrace, printing each one's stack (the technique of
// go.uber.org/goleak, written here). Call it from a package's TestMain:
//
//	func TestMain(m *testing.M) { os.Exit(testmatrix.RunLeakChecked(m)) }
func RunLeakChecked(m *testing.M) int {
	code := m.Run()
	if code != 0 {
		return code
	}
	if leaked := leakedGoroutines(leakGrace); len(leaked) > 0 {
		fmt.Fprintf(os.Stderr, "leak check: %d goroutine(s) outlived the tests:\n\n%s\n",
			len(leaked), strings.Join(leaked, "\n\n"))
		return 1
	}
	return 0
}

// leakedGoroutines returns the stack of every goroutine other than the
// caller's and the allowlisted ones, polling with a doubling sleep until
// none is left or grace has passed.
func leakedGoroutines(grace time.Duration) []string {
	deadline := time.Now().Add(grace)
	for wait := time.Millisecond; ; wait = min(2*wait, 100*time.Millisecond) {
		leaked := otherGoroutines()
		if len(leaked) == 0 || time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(wait)
	}
}

// otherGoroutines snapshots every goroutine's stack and drops the
// caller's (runtime.Stack lists it first) and the allowlisted ones.
func otherGoroutines() []string {
	buf := make([]byte, 64<<10)
	n := runtime.Stack(buf, true)
	for ; n == len(buf); n = runtime.Stack(buf, true) {
		buf = make([]byte, 2*len(buf))
	}
	var out []string
	for _, g := range strings.Split(string(buf[:n]), "\n\n")[1:] {
		if !allowedGoroutine(g) {
			out = append(out, g)
		}
	}
	return out
}

func allowedGoroutine(stack string) bool {
	for _, fn := range leakAllowed {
		if strings.Contains(stack, "\n"+fn) {
			return true
		}
	}
	return false
}
