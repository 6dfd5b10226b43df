// Fixture for the metrics histogram counter rule, type-checked as
// saco/internal/metrics. This file is the guarded field's home
// (histogram.go): the audited Observe/snapshot accessors live here and
// may touch the counters freely — the cells are themselves atomics.
package src

import "sync/atomic"

type Histogram struct {
	counts  []atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(buckets int) *Histogram {
	return &Histogram{counts: make([]atomic.Uint64, buckets+1)}
}

func (h *Histogram) Observe(bucket int) {
	h.counts[bucket].Add(1)
}

func (h *Histogram) count() uint64 {
	var n uint64
	for j := range h.counts {
		n += h.counts[j].Load()
	}
	return n
}
