// Package unit defines the physical quantities the simulator computes
// with: link rates in bits per second and packet sizes in bytes, plus the
// serialization-time arithmetic connecting them to simulated time.
package unit

import (
	"fmt"
	"math/bits"

	"expresspass/internal/sim"
)

// Rate is a link or flow rate in bits per second.
type Rate int64

// Common rates.
const (
	BitPerSecond Rate = 1
	Kbps              = 1000 * BitPerSecond
	Mbps              = 1000 * Kbps
	Gbps              = 1000 * Mbps
)

// Bytes is a size in bytes.
type Bytes int64

// Common sizes.
const (
	Byte Bytes = 1
	KB         = 1000 * Byte
	MB         = 1000 * KB
	GB         = 1000 * MB
)

// Ethernet frame accounting. ExpressPass sizes credits as minimum Ethernet
// frames *including preamble and inter-packet gap* (84 B on the wire) and
// lets each credit authorize one maximum-size frame (1538 B on the wire):
// credits are therefore rate-limited to 84/(84+1538) ≈ 5.18% of capacity.
const (
	// MinFrame is the minimum Ethernet frame on the wire (64 + 20).
	MinFrame Bytes = 84
	// MaxFrame is a full MTU Ethernet frame on the wire (1518 + 20).
	MaxFrame Bytes = 1538
	// MaxCredit is the largest credit on the wire: a MinFrame plus up
	// to 8 B of random padding (credit size randomization).
	MaxCredit Bytes = MinFrame + 8
	// MTUPayload is the transport payload carried by a MaxFrame
	// (1500 MTU minus 40 B of simulated TCP/IP-style headers).
	MTUPayload Bytes = 1460
)

// CreditRatio is the fraction of link capacity reserved for credit
// packets: one 84 B credit per 1622 B of wire time.
const CreditRatio = float64(MinFrame) / float64(MinFrame+MaxFrame)

// TxTime returns the serialization time of n bytes at rate r.
func TxTime(n Bytes, r Rate) sim.Duration {
	if r <= 0 {
		panic("unit: TxTime with non-positive rate")
	}
	// n*8 bits / r bps, in picoseconds. The remainder × 10¹² exceeds
	// int64 for sub-second remainders of fast links, so use 128-bit
	// intermediate math for an exact result.
	b := int64(n) * 8
	sec := b / int64(r)
	rem := uint64(b % int64(r))
	hi, lo := bits.Mul64(rem, uint64(sim.Second))
	q, _ := bits.Div64(hi, lo, uint64(r))
	return sim.Duration(sec)*sim.Second + sim.Duration(q)
}

// Scale returns r scaled by f.
func (r Rate) Scale(f float64) Rate { return Rate(float64(r) * f) }

// Gbits returns the rate in gigabits per second.
func (r Rate) Gbits() float64 { return float64(r) / float64(Gbps) }

// String renders the rate with an adaptive unit.
func (r Rate) String() string {
	switch {
	case r >= Gbps:
		return fmt.Sprintf("%.4gGbps", float64(r)/float64(Gbps))
	case r >= Mbps:
		return fmt.Sprintf("%.4gMbps", float64(r)/float64(Mbps))
	case r >= Kbps:
		return fmt.Sprintf("%.4gKbps", float64(r)/float64(Kbps))
	default:
		return fmt.Sprintf("%dbps", int64(r))
	}
}

// String renders the size with an adaptive unit.
func (b Bytes) String() string {
	switch {
	case b >= GB:
		return fmt.Sprintf("%.4gGB", float64(b)/float64(GB))
	case b >= MB:
		return fmt.Sprintf("%.4gMB", float64(b)/float64(MB))
	case b >= KB:
		return fmt.Sprintf("%.4gKB", float64(b)/float64(KB))
	default:
		return fmt.Sprintf("%dB", int64(b))
	}
}
