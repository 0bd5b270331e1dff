// Package sim provides a deterministic discrete-event simulation engine
// with a picosecond-resolution clock. It is the substrate every network
// experiment in this repository runs on: events are executed in strict
// (time, insertion-order) order, and all randomness flows through a
// seedable SplitMix64 generator, so a given (topology, workload, seed)
// triple always produces bit-identical results.
package sim

import (
	"fmt"
	"time"
)

// Time is a simulation timestamp in integer picoseconds.
//
// Picoseconds are the right grain for datacenter link speeds: at 100 Gbps a
// minimum-size 84 B credit frame serializes in 6.72 ns, and pacing gaps
// must be representable well below that to avoid quantization artifacts.
// An int64 of picoseconds covers ±106 days, far beyond any experiment.
type Time int64

// Duration is a span of simulated time, also in picoseconds.
type Duration = Time

// Common durations.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Forever is a sentinel "infinitely far in the future" timestamp.
const Forever Time = 1<<63 - 1

// Seconds returns t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros returns t as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// FromStd converts a time.Duration to a simulation Duration.
func FromStd(d time.Duration) Duration { return Duration(d.Nanoseconds()) * Nanosecond }

// Seconds constructs a Duration from floating-point seconds.
func Seconds(s float64) Duration { return Duration(s * float64(Second)) }

// Micros constructs a Duration from floating-point microseconds.
func Micros(us float64) Duration { return Duration(us * float64(Microsecond)) }

// String renders the timestamp with an adaptive unit.
func (t Time) String() string {
	switch {
	case t == Forever:
		return "forever"
	case t < 0 && t != -t: // -t of the most negative Time is itself
		return fmt.Sprintf("-%v", -t)
	case t < Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < Microsecond:
		return fmt.Sprintf("%.3gns", float64(t)/float64(Nanosecond))
	case t < Millisecond:
		return fmt.Sprintf("%.4gus", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.4gms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.4gs", float64(t)/float64(Second))
	}
}
