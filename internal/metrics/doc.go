// Package metrics is the zero-dependency operations surface of the
// serving layer: counters, gauges and histograms collected with atomic
// operations only and rendered in the Prometheus text exposition
// format.
//
// The design carries the repository's synchronization-avoiding stance
// into observability:
//
//   - Counters and gauges are single atomic words; incrementing one on
//     the request path costs one uncontended atomic add and never takes
//     a lock.
//   - A histogram is one atomic counter per bucket plus a CAS-added
//     sum. Its observers run on the serving dispatcher's one goroutine,
//     so the counters are uncontended and the sum adds in observation
//     order.
//   - Bucket boundaries are fixed at construction, so the exposition
//     layout — which series exist, in which order, with which "le"
//     labels — is deterministic across runs and replicas. Only the
//     observed totals vary; the schema never does.
//
// Metric identity is the name plus an optional pre-rendered label set
// (e.g. model="alpha"); Registry.Write emits families and series in
// sorted order, which keeps scrapes diffable in tests and CI.
package metrics
