#!/bin/sh
# Negative tests for the savet suite: inject one known contract
# violation at a time into a scratch copy of the tree and assert the
# lint gate actually fails. A suite that cannot catch the violations it
# exists for is worse than none; CI runs this alongside the clean sweep.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT INT TERM

savet="$work/savet"
(cd "$root" && go build -o "$savet" ./cmd/savet)

# mutate <label> <file-under-tree> <expected-analyzer> writes stdin to
# the file inside a fresh copy of the working tree and expects savet to fail on
# that package with a finding from the expected analyzer.
mutate() {
    label=$1
    file=$2
    analyzer=$3
    tree="$work/tree"
    rm -rf "$tree"
    mkdir -p "$tree"
    # The working tree alone, committed or not and inside git or not: a
    # file deleted but not yet committed stays deleted in the copy.
    (cd "$root" && tar cf - ./go.mod ./internal ./cmd) | (cd "$tree" && tar xf -)
    cat >"$tree/$file"
    pkgdir=$(dirname "$file")
    if out=$(cd "$tree" && "$savet" "./$pkgdir/" 2>&1); then
        echo "FAIL [$label]: savet passed a tree containing a planted $analyzer violation" >&2
        exit 1
    fi
    if ! printf '%s\n' "$out" | grep -q "\[$analyzer\]"; then
        echo "FAIL [$label]: savet failed but not with a $analyzer finding:" >&2
        printf '%s\n' "$out" >&2
        exit 1
    fi
    echo "ok   [$label]: caught by $analyzer"
}

mutate "reassociated reduction" internal/core/zz_mutation.go detfloat <<'EOF'
package core

// Planted violation: a lane-split float reduction in a deterministic
// kernel package.
func zzMutationDot(x, y []float64) float64 {
	var s0, s1 float64
	for i := 0; i+2 <= len(x); i += 2 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
	}
	return s0 + s1
}
EOF

mutate "map-order accumulation" internal/stream/zz_mutation.go mapiter <<'EOF'
package stream

// Planted violation: float accumulation in map iteration order.
func zzMutationSum(m map[int]float64) float64 {
	var s float64
	for _, v := range m {
		s += v
	}
	return s
}
EOF

mutate "dropped transport error" internal/dist/zz_mutation.go commerr <<'EOF'
package dist

import "saco/internal/mpi"

// Planted violation: a Transport teardown with the error thrown away.
func zzMutationClose(t mpi.Transport) {
	t.Close()
}
EOF

mutate "store into a memoized matrix" internal/core/zz_mutation.go atomicguard <<'EOF'
package core

import "saco/internal/sparse"

// Planted violation: an element store into a CSR, whose converted row
// blocks every later solve on the matrix would then read stale.
func zzMutationScale(a *sparse.CSR, s float64) {
	for k := range a.Val {
		a.Val[k] *= s
	}
}
EOF

mutate "plain read of the row-block memo" internal/sparse/zz_mutation.go atomicguard <<'EOF'
package sparse

// Planted violation: the memo pointer read outside rowmemo.go, racing
// its lazy install.
func zzMutationMemo(a *CSR) bool {
	return a.memo != nil
}
EOF

echo "all planted violations caught"
