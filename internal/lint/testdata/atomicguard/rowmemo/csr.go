// A second file of the same package: a plain read of the memo pointer
// races the lazy install, so even the package's own files go through
// loadMemo.
package src

func (a *CSR) peek() *rowMemo {
	return a.memo // want "outside its home file rowmemo.go"
}

func (a *CSR) reset() {
	a.memo = nil // want "outside its home file rowmemo.go"
}

func (a *CSR) built() int { return a.loadMemo().built }
