#!/bin/sh
# Negative tests for the determinism contract: plant one change of
# summation order (or one unsound shortcut) at a time into a scratch copy
# of the tree and assert that a package's tests fail on it within a
# minute. Every "same bits" claim rests on the golden tables and the
# kernels' bitwise oracles catching such a change; CI runs this next to
# lint_mutations.sh.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT INT TERM

# plant <label> <files-under-tree> <perl substitution> [package] copies
# the working tree, applies the substitution to each of the
# space-separated files (which must change every one of them) and
# expects `go test` of the package (by default the first file's own) to
# fail, with a test failure rather than a build error, in at most 60 s.
plant() {
    label=$1
    files=$2
    subst=$3
    first=${files%% *}
    pkgdir=${4:-$(dirname "$first")}
    tree="$work/tree"
    rm -rf "$tree"
    mkdir -p "$tree"
    (cd "$root" && tar cf - ./go.mod ./internal ./cmd) | (cd "$tree" && tar xf -)
    for file in $files; do
        cp "$tree/$file" "$work/orig.go"
        perl -0pi -e "$subst" "$tree/$file"
        if cmp -s "$tree/$file" "$work/orig.go"; then
            echo "FAIL [$label]: the substitution no longer matches $file" >&2
            exit 1
        fi
    done
    start=$(date +%s)
    if out=$(cd "$tree" && go test -count=1 "./$pkgdir/" 2>&1); then
        echo "FAIL [$label]: go test ./$pkgdir/ passed a tree with the mutation planted" >&2
        exit 1
    fi
    took=$(($(date +%s) - start))
    if ! printf '%s\n' "$out" | grep -q -- '^--- FAIL'; then
        echo "FAIL [$label]: go test failed without a failing test (build error?):" >&2
        printf '%s\n' "$out" >&2
        exit 1
    fi
    if [ "$took" -gt 60 ]; then
        echo "FAIL [$label]: caught, but only after ${took}s" >&2
        exit 1
    fi
    echo "ok   [$label]: caught in ./$pkgdir/ by $(printf '%s\n' "$out" | grep -m1 -- '^--- FAIL' | cut -d' ' -f3) in ${took}s"
}

plant "cross-term loop reversed" internal/core/salasso.go \
    's/for b, cf := range coef \{\n(\s*)s \+= col\[b\*c\+a\] \* cf/for b := len(coef) - 1; b >= 0; b-- {\n$1cf := coef[b]\n$1s += col[b*c+a] * cf/'

plant "SVM moved-list sum reversed" internal/core/svm.go \
    's/for _, m := range s\.moved \{\n(\s*)dot \+=/for q := len(s.moved) - 1; q >= 0; q-- {\n$1m := s.moved[q]\n$1dot +=/'

plant "L1 rule without its x == 0 test" internal/core/prox.go \
    's/if x != 0 \|\| !\(math\.Abs\(grad\[a\]\) <= r\.Lambda\)/if _ = x; !(math.Abs(grad[a]) <= r.Lambda)/'

plant "L1 rule loosened to |g| <= 2λ" internal/core/prox.go \
    's/!\(math\.Abs\(grad\[a\]\) <= r\.Lambda\)/!(math.Abs(grad[a]) <= 2*r.Lambda)/'

# A Lasso at s = 1 with no Reducer builds a block's Gram in the block
# step, and only for a moving block. Skipping the batch's Gram while the
# step still reads the batch buffer leaves every step the zero Gram: the
# S <= 1 goldens must see it.
plant "s = 1 batch skips its Gram, the step reads the batch" "internal/core/lasso.go internal/core/salasso.go" \
    's/if s == 1 && red == nil \{/if false {/; s/if l\.gram != nil \{/if l.d.s > 1 {/'

# Under a Reducer the Gram must travel in the batch: a rank's own block
# Gram is not the reduced one once P > 1. The P = 3, s = 1 dist cell of
# internal/core pins it too.
plant "s = 1 block Gram built locally under a Reducer" internal/core/lasso.go \
    's/if s == 1 && red == nil \{/if s == 1 {/' internal/dist
plant "s = 1 block Gram built locally under a Reducer, solver pin" internal/core/lasso.go \
    's/if s == 1 && red == nil \{/if s == 1 {/' internal/core

plant "Gram entries summed in descending index" internal/sparse/gram.go \
    's/for _, h := range w\.hits\[:w\.nhits\] \{\n(\s*)e := node\[h\]/for q := w.nhits - 1; q >= 0; q-- {\n$1h := w.hits[q]\n$1e := node[h]/'

plant "hoisted product (gatherDot) reversed" internal/sparse/loops.go \
    's/for k, j := range idx \{\n(\s*)acc \+= val\[k\] \* x\[j\]/for k := len(idx) - 1; k >= 0; k-- {\n$1acc += val[k] * x[idx[k]]/'

# The column product runs four chains at once over a group's common
# length and finishes each column's tail after its head. Summing one
# column's tail before its head keeps every term and changes only the
# order: the kernel's oracle and the solvers' goldens must both see it.
tailfirst='s/s := \[4\]float64\{dst\[k\],/s := [4]float64{gatherDot(dst[k], v0[n:], i0[n:], x),/; s/dst\[k\] = gatherDot\(s\[0\], v0\[n:\], i0\[n:\], x\)/dst[k] = s[0]/'
plant "grouped product: a tail summed before its head" internal/sparse/loops.go "$tailfirst"
plant "grouped product: a tail summed before its head, solver pin" internal/sparse/loops.go "$tailfirst" internal/core

# Numbering the ranks from the top keeps every rank's result the same
# sum, but at P = 3 it is v0 + (v1 + v2) instead of the binomial tree's
# (v0 + v1) + v2. (Swapping the operands of one addition is no such
# change: IEEE addition commutes.) The collective's oracle sees it; the
# P = 3 dist cell of internal/core must see it too.
allreduce='s/p, r := c\.Size\(\), c\.Rank\(\)(\n(?:.*\n){3}\s*tag := c\.collTag\(kindAllreduce\))/p, r := c.Size(), c.Size()-1-c.Rank()$1/; s/c\.Send\(r\+d, tag, data\)/c.Send(p-1-(r+d), tag, data)/; s/c\.Send\(l, tag, data\)/c.Send(p-1-l, tag, data)/; s/c\.Recv\(src, tag\)/c.Recv(p-1-src, tag)/'
plant "allreduce association at P = 3" internal/mpi/collectives.go "$allreduce"
plant "allreduce association at P = 3, solver pin" internal/mpi/collectives.go "$allreduce" internal/core

echo "all planted mutations caught"
