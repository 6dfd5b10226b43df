package lint

import "strings"

// The analyzer scopes below are the machine-readable form of the
// ROADMAP backend-matrix contract. A package appears in a scope because
// the runtime test suite asserts an invariant over it; adding a new
// package to the deterministic matrix means adding it here too (see the
// "Static analysis" section of the README).

// deterministicPkgs are the packages whose outputs — trajectories,
// serialized artifacts, report lines — are covered by a bitwise
// determinism assertion somewhere in the test suite. detfloat and
// mapiter fire only inside these.
var deterministicPkgs = map[string]bool{
	"saco":                     true,
	"saco/internal/core":       true,
	"saco/internal/mat":        true,
	"saco/internal/sparse":     true,
	"saco/internal/simd":       true,
	"saco/internal/dist":       true,
	"saco/internal/mpi":        true,
	"saco/internal/stream":     true,
	"saco/internal/wire":       true,
	"saco/internal/runtime":    true,
	"saco/internal/rng":        true,
	"saco/internal/costmodel":  true,
	"saco/internal/libsvm":     true,
	"saco/internal/datagen":    true,
	"saco/internal/serve":      true,
	"saco/internal/metrics":    true,
	"saco/internal/shard":      true,
	"saco/internal/testmatrix": true,
	"saco/cmd/internal/cli":    true,
	"saco/cmd/sasolve":         true,
	"saco/cmd/sarank":          true,
	"saco/cmd/saserve":         true,
	"saco/cmd/sadatagen":       true,
	"saco/cmd/saexp":           true,
	"saco/internal/bench":      true,
}

// hotPathPkgs are the solver/kernel packages where wall clocks, global
// RNG, and GOMAXPROCS-dependent sizing can silently change a
// trajectory's bitwise class. nondet fires only inside these;
// measurement harnesses (internal/bench) and the serving
// layer's operational stats are deliberately outside.
var hotPathPkgs = map[string]bool{
	"saco/internal/core":      true,
	"saco/internal/mat":       true,
	"saco/internal/sparse":    true,
	"saco/internal/simd":      true,
	"saco/internal/dist":      true,
	"saco/internal/mpi":       true,
	"saco/internal/stream":    true,
	"saco/internal/runtime":   true,
	"saco/internal/rng":       true,
	"saco/internal/costmodel": true,
}

// fileErrPkgs are the packages where a dropped (*os.File).Close or
// .Sync error loses data or hides a short write: the streaming stack,
// the LIBSVM reader/writer, the distributed loaders, the atomic file
// writer every binary format publishes through, and every CLI.
func inFileErrScope(path string) bool {
	switch path {
	case "saco/internal/stream", "saco/internal/libsvm", "saco/internal/dist", "saco/internal/wire":
		return true
	}
	return strings.HasPrefix(path, "saco/cmd/")
}
