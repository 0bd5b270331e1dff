// Package workload generates the traffic the evaluation runs: the four
// realistic flow-size distributions of Table 2 (Data Mining, Web Search,
// Cache Follower, Web Server), Poisson flow arrivals at a target load,
// and the synthetic patterns of the microbenchmarks — partition/aggregate
// incast and MapReduce shuffle.
package workload

import (
	"fmt"
	"math"

	"expresspass/internal/sim"
	"expresspass/internal/unit"
)

// SizeDist is a flow-size distribution sampled as a piecewise
// log-uniform mixture over size buckets: within each bucket sizes are
// log-uniformly distributed, and bucket weights follow Table 2.
type SizeDist struct {
	Name    string
	buckets []bucket
	mean    float64 // analytic mean in bytes
}

type bucket struct {
	lo, hi float64 // bytes, inclusive/exclusive
	p      float64 // probability mass
}

func newDist(name string, bs []bucket) *SizeDist {
	var tot float64
	for _, b := range bs {
		tot += b.p
	}
	d := &SizeDist{Name: name}
	var mean float64
	for _, b := range bs {
		b.p /= tot
		d.buckets = append(d.buckets, b)
		// Mean of log-uniform on [lo,hi): (hi-lo)/ln(hi/lo).
		m := b.lo
		if b.hi > b.lo {
			m = (b.hi - b.lo) / math.Log(b.hi/b.lo)
		}
		mean += b.p * m
	}
	d.mean = mean
	return d
}

// Mean returns the analytic mean flow size.
func (d *SizeDist) Mean() unit.Bytes { return unit.Bytes(d.mean) }

// Sample draws one flow size.
func (d *SizeDist) Sample(rng *sim.Rand) unit.Bytes {
	u := rng.Float64()
	var acc float64
	for _, b := range d.buckets {
		acc += b.p
		if u <= acc || b == d.buckets[len(d.buckets)-1] {
			if b.hi <= b.lo {
				return unit.Bytes(b.lo)
			}
			// Log-uniform within the bucket.
			v := b.lo * math.Exp(rng.Float64()*math.Log(b.hi/b.lo))
			if v < 1 {
				v = 1
			}
			return unit.Bytes(v)
		}
	}
	return unit.Bytes(d.buckets[len(d.buckets)-1].hi)
}

func (d *SizeDist) String() string {
	return fmt.Sprintf("%s(mean=%v)", d.Name, d.Mean())
}

// The Table 2 distributions. Bucket fractions come straight from the
// table; within buckets sizes are log-uniform, and the heavy tails are
// subdivided so the analytic means land on the reported averages
// (7.41 MB, 1.6 MB, 701 KB, 64 KB). The upper caps follow §6.3: 1 GB
// for Data Mining, 30 MB for Web Search.

// DataMining is the distribution from VL2 [28]: 78% short flows but a
// heavy tail capped at 1 GB, mean ≈ 7.4 MB.
func DataMining() *SizeDist {
	return newDist("DataMining", []bucket{
		{100, 10e3, 0.78},
		{10e3, 100e3, 0.05},
		{100e3, 1e6, 0.08},
		{1e6, 100e6, 0.075},
		{100e6, 1e9, 0.015},
	})
}

// WebSearch is the DCTCP search workload [3]: mean ≈ 1.6 MB, cap 30 MB.
func WebSearch() *SizeDist {
	return newDist("WebSearch", []bucket{
		{100, 10e3, 0.49},
		{10e3, 100e3, 0.03},
		{100e3, 1e6, 0.18},
		{1e6, 10e6, 0.275},
		{10e6, 30e6, 0.025},
	})
}

// CacheFollower is the Facebook cache-follower workload [50]:
// mean ≈ 701 KB.
func CacheFollower() *SizeDist {
	return newDist("CacheFollower", []bucket{
		{100, 10e3, 0.50},
		{10e3, 100e3, 0.03},
		{100e3, 1e6, 0.18},
		{1e6, 4e6, 0.29},
	})
}

// WebServer is the Facebook web-server workload [50]: mean ≈ 64 KB.
func WebServer() *SizeDist {
	return newDist("WebServer", []bucket{
		{100, 10e3, 0.63},
		{10e3, 100e3, 0.18},
		{100e3, 550e3, 0.19},
		{1e6, 2e6, 0.004},
	})
}

// AllDists returns the four Table 2 distributions in paper order.
func AllDists() []*SizeDist {
	return []*SizeDist{DataMining(), WebSearch(), CacheFollower(), WebServer()}
}

// SizeClass buckets a flow size per the paper's S/M/L/XL convention.
func SizeClass(b unit.Bytes) string {
	switch {
	case b < 10*unit.KB:
		return "S"
	case b < 100*unit.KB:
		return "M"
	case b < 1*unit.MB:
		return "L"
	default:
		return "XL"
	}
}
