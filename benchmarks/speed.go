package main

import (
	"sync"
	"time"
)

// The box that gates this benchmark is a small VM on a shared host, and its
// speed is not its own: the same pure-CPU loop takes 0.7 s in one minute and
// 1.2 s in another, and every wall and CPU time of the program follows it.
// Ten launches of the same code then spread by 15-40 %, which no regression
// bound survives.
//
// Every end-to-end time is therefore reported at the reference speed. A
// fixed piece of work that belongs to the benchmark and calls nothing of
// the repository (speedRef.read: sparse merge-join dot products, the
// kernel under five of the seven workloads) is timed right before and right
// after every op, every set-up and every window of requests, on as many
// cores as the workload keeps busy. How much longer than nominal it took is
// how slow the machine was around that op, and the op's time is divided by
// it. A change to the repository cannot move the reference, so between two
// commits the ratio of a reported time is the ratio of the op times, with
// the machine's wander taken out of both.

// refMerges is the work of one lane of one reading: a few milliseconds, long
// enough to average the sub-millisecond flutter of the machine's speed,
// short against the op it brackets.
const refMerges = 16000

// maxWidth is the most lanes a reading has: the benchmark never keeps more
// than two cores busy (maxProcs).
const maxWidth = 2

// refNominal is what a reading of width 1 and of width 2 takes on the box
// the benchmark was sized on (2 vCPUs of a 2.1 GHz Sapphire Rapids host) in
// its usual state: the wall time until every lane is done, and the CPU time
// of all lanes together. Two lanes at once end with the slower one, so the
// second wall time is a little more than the first. The constants only
// scale the reported times so that they read as that box's milliseconds;
// they cancel in every comparison between two runs.
var refNominal = [maxWidth]struct{ wallMs, cpuMs float64 }{
	{wallMs: 6.0, cpuMs: 6.0},
	{wallMs: 6.3, cpuMs: 12.2},
}

// speedRef holds the inputs of the reference work: a pool of short sparse
// vectors, 3 MB together — past L2, like the matrices of the workloads —
// and a fixed random order in which pairs of them are merged. The order is
// long enough that the branch predictor cannot learn it. Nothing here
// depends on the seed: this is the measuring stick, not a workload.
type speedRef struct {
	ptr  []int
	idx  []int32
	val  []float64
	pair []int32
	// pos is where each lane stands in pair; the lanes start half the
	// order apart. acc keeps each lane's result alive.
	pos [maxWidth]int
	acc [maxWidth]float64
}

func newSpeedRef() *speedRef {
	const vecs, dim, meanGap = 8192, 8192, 256 // 32 entries per vector on average, 12 bytes each
	r := &speedRef{ptr: make([]int, 1, vecs+1), pair: make([]int32, 1<<16)}
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 { // xorshift64 from a constant: the same pool on every run
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := 0; i < vecs; i++ {
		for c := int(next() % meanGap); c < dim; c += 1 + int(next()%(2*meanGap)) {
			r.idx = append(r.idx, int32(c))
			r.val = append(r.val, float64(next()%1024)/1024)
		}
		r.ptr = append(r.ptr, len(r.idx))
	}
	for i := range r.pair {
		r.pair[i] = int32(next() % vecs)
	}
	for lane := range r.pos {
		r.pos[lane] = lane * len(r.pair) / maxWidth
	}
	return r
}

// work is one lane's share of a reading: refMerges dot products of two pool
// vectors by merging their index lists.
func (r *speedRef) work(lane int) {
	pos := r.pos[lane]
	var acc float64
	for k := 0; k < refMerges; k++ {
		i, j := r.pair[pos], r.pair[pos+1]
		pos = (pos + 2) % len(r.pair)
		ia, va := r.idx[r.ptr[i]:r.ptr[i+1]], r.val[r.ptr[i]:r.ptr[i+1]]
		ib, vb := r.idx[r.ptr[j]:r.ptr[j+1]], r.val[r.ptr[j]:r.ptr[j+1]]
		for p, q := 0, 0; p < len(ia) && q < len(ib); {
			switch a, b := ia[p], ib[q]; {
			case a == b:
				acc += va[p] * vb[q]
				p++
				q++
			case a < b:
				p++
			default:
				q++
			}
		}
	}
	r.pos[lane], r.acc[lane] = pos, acc
}

// slowdown is one reading of the machine's speed: how many times longer
// than nominal the reference work took. wall is the time until the last
// lane was done, so it follows the slowest core — what a program whose
// threads wait for each other feels. cpu is the CPU time of all lanes, so
// it follows the mean speed of the cores — what CPU time feels, and a
// program whose work goes to whichever core is free.
type slowdown struct {
	wall, cpu float64
}

// read takes one reading on `width` cores at once (1 or 2).
func (r *speedRef) read(width int) slowdown {
	c0 := cpuTime()
	t0 := time.Now()
	if width == 1 {
		r.work(0)
	} else {
		var wg sync.WaitGroup
		for lane := 0; lane < width; lane++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.work(lane)
			}()
		}
		wg.Wait()
	}
	wall := time.Since(t0)
	cpu := cpuTime() - c0
	nominal := refNominal[width-1]
	return slowdown{wall: ms(wall) / nominal.wallMs, cpu: ms(cpu) / nominal.cpuMs}
}

// between is the slowdown charged to what ran between two readings: their
// mean.
func between(a, b slowdown) slowdown {
	return slowdown{wall: (a.wall + b.wall) / 2, cpu: (a.cpu + b.cpu) / 2}
}
