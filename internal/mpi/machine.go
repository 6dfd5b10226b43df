package mpi

import "fmt"

// Machine holds the α-β-γ cost parameters of the simulated distributed
// machine. The simulator charges
//
//	α            per message (latency, the paper's L term),
//	β            per 8-byte word moved (bandwidth, the W term),
//	γ            per flop (computation, the F term),
//
// along the message DAG, which is exactly the model behind Table I of the
// paper. Two flop rates are kept because the paper attributes part of the
// SA speedup to BLAS-3 cache efficiency: "computing the s² entries of the
// Gram matrix is more cache-efficient (uses a BLAS-3 routine) than
// computing s individual dot-products (uses a BLAS-1 routine)" (§IV-B).
// Blocked (BLAS-3-like) work whose working set exceeds CacheWords falls
// back to the streaming rate, reproducing the "once s becomes too large we
// see slowdowns" effect.
type Machine struct {
	Name         string
	Alpha        float64 // seconds per message
	Beta         float64 // seconds per 8-byte word
	GammaStream  float64 // seconds per flop, BLAS-1 / sparse streaming
	GammaBlocked float64 // seconds per flop, blocked BLAS-3
	CacheWords   int     // blocked-rate working-set limit, in words
}

// CrayXC30 approximates a node of the NERSC Edison system used in the
// paper: Aries interconnect (~1.4 µs latency, ~8 GB/s effective per-core
// bandwidth) and Ivy Bridge cores (~2 Gflop/s streaming, ~9.6 Gflop/s
// blocked peak, 2.5 MB L3 slice per core).
func CrayXC30() Machine {
	return Machine{
		Name:         "cray-xc30",
		Alpha:        1.4e-6,
		Beta:         1.0e-9,
		GammaStream:  5.0e-10,
		GammaBlocked: 1.05e-10,
		CacheWords:   320_000,
	}
}

// EthernetCluster approximates a commodity 10 GbE cluster: ~50 µs latency
// and ~1 GB/s bandwidth. Latency costs dominate sooner, so SA methods gain
// more than on the Cray, as the paper predicts for higher-latency fabrics.
func EthernetCluster() Machine {
	return Machine{
		Name:         "ethernet-10g",
		Alpha:        5.0e-5,
		Beta:         8.0e-9,
		GammaStream:  5.0e-10,
		GammaBlocked: 1.05e-10,
		CacheWords:   320_000,
	}
}

// SparkLike approximates a bulk-synchronous data-analytics framework where
// each synchronization is a scheduled task wave (milliseconds of latency).
// The paper's conclusion singles this case out: "our methods would attain
// greater speedups on frameworks like Spark due to the large latency
// costs".
func SparkLike() Machine {
	return Machine{
		Name:         "spark-like",
		Alpha:        5.0e-3,
		Beta:         8.0e-9,
		GammaStream:  5.0e-10,
		GammaBlocked: 1.05e-10,
		CacheWords:   320_000,
	}
}

// MachineByName maps the -machine flag value of sasolve, sarank and
// saexp onto its preset; the error names the accepted values.
func MachineByName(name string) (Machine, error) {
	switch name {
	case "cray":
		return CrayXC30(), nil
	case "ethernet":
		return EthernetCluster(), nil
	case "spark":
		return SparkLike(), nil
	}
	return Machine{}, fmt.Errorf("unknown machine %q (cray, ethernet, spark)", name)
}

// Zero is a machine with no costs; useful for tests that only check
// algebraic results.
func Zero() Machine { return Machine{Name: "zero"} }

// gammaFor returns the per-flop cost for blocked work with the given
// working set, applying the cache knee.
func (m Machine) gammaFor(blocked bool, workingSetWords int) float64 {
	if !blocked {
		return m.GammaStream
	}
	if m.CacheWords > 0 && workingSetWords > m.CacheWords {
		return m.GammaStream
	}
	return m.GammaBlocked
}
