// A second file of the same package: the counters are reachable only
// through the audited accessors in histogram.go — even a structural
// peek names storage this file has no business holding.
package src

func bucketCount(h *Histogram) int {
	return len(h.counts) // want "outside its home file"
}

func drainFirst(h *Histogram) uint64 {
	return h.counts[0].Load() // want "outside its home file"
}

func throughAccessor(h *Histogram) uint64 {
	return h.count()
}
