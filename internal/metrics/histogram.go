package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync/atomic"
)

// DefLatencyBuckets are the fixed latency bounds, in seconds, shared by
// every latency histogram in the serving layer: 100µs to 5s, roughly
// ×2.5 per step. Fixed bounds keep the exposition schema identical
// across replicas, so cluster-wide scrapes aggregate cleanly.
var DefLatencyBuckets = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5}

// DefSizeBuckets are the fixed size bounds (rows per batch): powers of
// two through the dispatcher's default MaxBatch.
var DefSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// Histogram counts observations into fixed buckets. Buckets are upper
// bounds (le semantics), strictly increasing, frozen at construction;
// the implicit +Inf bucket catches the rest. Observe is lock-free: one
// atomic add on a bucket counter plus one CAS-add on the sum.
//
// The counts field is atomic-only storage audited in this file (see
// internal/lint's atomicguard registry): all access goes through
// Observe and snapshot below.
type Histogram struct {
	buckets []float64
	counts  []atomic.Uint64 // len(buckets)+1, not cumulative; last cell is +Inf
	sumBits atomic.Uint64   // float64 bits, CAS-added
}

// newHistogram validates and freezes the bucket bounds.
func newHistogram(buckets []float64) *Histogram {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("metrics: histogram buckets not strictly increasing at %v", buckets[i]))
		}
	}
	return &Histogram{
		buckets: append([]float64(nil), buckets...),
		counts:  make([]atomic.Uint64, len(buckets)+1),
	}
}

// Observe records one value. Nil receivers ignore the call.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Smallest bucket whose bound is >= v (le semantics); past the last
	// bound lands in the +Inf cell.
	h.counts[sort.SearchFloat64s(h.buckets, v)].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// snapshot returns the cumulative bucket counts (Prometheus exposition
// semantics), the total count and the value sum.
func (h *Histogram) snapshot() (cum []uint64, count uint64, sum float64) {
	cum = make([]uint64, len(h.counts))
	for j := range h.counts {
		cum[j] = h.counts[j].Load()
		if j > 0 {
			cum[j] += cum[j-1]
		}
	}
	return cum, cum[len(cum)-1], math.Float64frombits(h.sumBits.Load())
}

// write renders the _bucket/_sum/_count series. name may carry a
// rendered {k="v"} suffix; the le label folds into it.
func (h *Histogram) write(w io.Writer, name string) error {
	cum, count, sum := h.snapshot()
	base, labels := name, ""
	if j := strings.IndexByte(name, '{'); j >= 0 {
		base, labels = name[:j], name[j+1:len(name)-1]+","
	}
	suffix := ""
	if labels != "" {
		suffix = "{" + labels[:len(labels)-1] + "}"
	}
	for j, bound := range h.buckets {
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", base, labels, formatFloat(bound), cum[j]); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", base, labels, count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", base, suffix, formatFloat(sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", base, suffix, count)
	return err
}
