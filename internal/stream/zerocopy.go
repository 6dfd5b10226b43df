package stream

import "unsafe"

// hostLittleEndian reports whether the running machine stores multi-byte
// integers little-endian — the precondition for reinterpreting the raw
// vals section (IEEE-754 bits, little-endian on disk) as a []float64
// without a decode copy.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// asFloat64LE reinterprets b as n little-endian float64 values without
// copying. It returns (nil, false) when the platform cannot alias the
// bytes safely: big-endian hosts, or a section that is not 8-byte
// aligned (shards pad the vals section to alignment, so mapped
// sections qualify; foreign buffers may not). The returned
// slice aliases b — the caller owns keeping b's backing memory alive and
// must treat the floats as read-only.
func asFloat64LE(b []byte, n int) ([]float64, bool) {
	if n == 0 {
		return []float64{}, false // nothing aliased, no need to pin b
	}
	if !hostLittleEndian || len(b) < 8*n {
		return nil, false
	}
	p := unsafe.Pointer(unsafe.SliceData(b))
	if uintptr(p)%8 != 0 {
		return nil, false
	}
	return unsafe.Slice((*float64)(p), n), true
}
