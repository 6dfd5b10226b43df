package core

// The s > 1 cells over other backends (golden_cells_test.go) live in
// package core_test, which may import dist and stream; they fold with
// this package's FNV fold.
var (
	FoldBits        = foldBits
	SkipUnlessAMD64 = skipUnlessAMD64
)

const FNVOffset = fnvOffset
