package main

import (
	"container/heap"
	"time"
)

// reference is the yardstick for the host's speed: a fixed hold-model
// loop on a 2048-entry binary heap of pointers (pop the earliest entry,
// push it back a pseudo-random interval later), which is the simulator's
// own access pattern in miniature and shares none of its code. On a small
// shared host a neighbour slows memory-bound code by 10–60%, in bursts of
// seconds or for ten minutes at a time. The fastest of many runs removes
// the bursts; a slow phase longer than the measurement slows every run
// and this loop with them, so dividing by the loop's own fastest sample
// removes the part of it the two share: over 40 consecutive measurements
// that spanned such a phase the fastest run spread 31.8% and the divided
// one 13.5%; when the host only has bursts the division changes nothing
// (11.1% against 10.3%). Seven other loops (bigger heaps, pointer chases
// through 8 and 64 MiB, a streaming sum, an ALU loop, a map with
// allocation) track no better. README.md has the numbers.
type reference struct {
	h    refHeap
	x, n uint64
}

type refEntry struct {
	at, seq uint64
	payload [6]uint64
}

type refHeap []*refEntry

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || h[i].at == h[j].at && h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEntry)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

func (r *reference) rand() uint64 {
	r.x += 0x9e3779b97f4a7c15
	z := (r.x ^ (r.x >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func newReference() *reference {
	r := &reference{}
	for i := 0; i < 2048; i++ {
		heap.Push(&r.h, &refEntry{at: r.rand() % 1_000_000, seq: r.n})
		r.n++
	}
	return r
}

const (
	// refOps is the length of one sample of the reference loop.
	refOps = 200_000
	// refNominalMs is what one sample takes on the build host when nothing
	// disturbs it. It only sets the scale of the normalised metrics: a
	// run timed while the reference takes exactly this long reports its
	// true seconds.
	refNominalMs = 30.0
)

// sampleMs times one sample of the loop, in milliseconds.
func (r *reference) sampleMs() float64 {
	start := time.Now()
	for i := 0; i < refOps; i++ {
		e := r.h[0]
		e.at += r.rand() % 100_000
		e.seq = r.n
		e.payload[0] = e.at
		r.n++
		heap.Fix(&r.h, 0)
	}
	return float64(time.Since(start)) / float64(time.Millisecond)
}
