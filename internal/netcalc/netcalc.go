// Package netcalc computes the zero-loss buffer bound of §3.1 (Table 1,
// Fig 5) by network calculus: for every switch port class of a 3-level
// multi-rooted tree it derives the spread ∆d_p between the fastest and
// slowest (credit in → data back) round trips through that port. In the
// worst case ∆d_p worth of data arrives simultaneously, so the data
// buffer required for zero loss is ∆d_p × the port's credited data rate.
//
// The recursion follows Eq 1 of the paper, reading d_q as the
// recursively-computed extremes at the next hop's ingress and ddata(q)
// as that port's own maximum data queuing (= its spread, since the
// buffer is sized to the spread):
//
//	dmax_p = max(d_credit) + max_q( t(p,q) + dmax_q + ∆d_q )
//	dmin_p =                 min_q( t(p,q) + dmin_q )
//	∆d_p   = dmax_p − dmin_p
//
// Uplink port classes only see next hops below them; downlink classes
// see next hops both below and above, which is why ToR down ports
// dominate the requirement (they face the full path-length variance of
// the fabric).
package netcalc

import (
	"expresspass/internal/sim"
	"expresspass/internal/unit"
)

// Spec describes the symmetric 3-level tree the bound is computed for.
// Both the 32-ary fat tree and the 3-tier Clos of Table 1 reduce to the
// same per-port recursion — the bound depends on rates, delays, and
// queue budgets, not on fanout counts — which is why the paper's Table 1
// shows identical numbers for both at equal speeds.
type Spec struct {
	HostRate   unit.Rate    // host–ToR link rate
	FabricRate unit.Rate    // ToR–Agg and Agg–Core link rate
	EdgeProp   sim.Duration // propagation on host/ToR/Agg links (1 µs)
	CoreProp   sim.Duration // propagation on Agg–Core links (5 µs)

	CreditQueue  int          // credit-class budget in packets (4–8)
	HostDelayMin sim.Duration // min credit-processing delay at hosts
	HostDelayMax sim.Duration // max credit-processing delay at hosts

	// Switching is the per-hop switching latency (default 0 — cut-
	// through switches contribute sub-microsecond latency).
	Switching sim.Duration
}

// PaperSpec returns the Table 1 assumptions for the given link speeds:
// 8-credit queues, 5 µs core / 1 µs edge propagation, and the testbed's
// host processing delay (0.9–6.2 µs, Fig 14a).
func PaperSpec(host, fabric unit.Rate) Spec {
	return Spec{
		HostRate:     host,
		FabricRate:   fabric,
		EdgeProp:     1 * sim.Microsecond,
		CoreProp:     5 * sim.Microsecond,
		CreditQueue:  8,
		HostDelayMin: sim.Micros(0.9),
		HostDelayMax: sim.Micros(6.2),
	}
}

// Bounds is the per-port-class result: the delay spread and the
// corresponding zero-loss data buffer requirement.
type Bounds struct {
	// Spreads (∆d_p) per port class.
	ToRDownSpread sim.Duration // ToR egress toward hosts
	ToRUpSpread   sim.Duration // ToR egress toward aggs
	AggUpSpread   sim.Duration // Agg egress toward cores
	CoreSpread    sim.Duration // Core egress toward aggs

	// Buffers per port (spread × credited data rate of the port).
	ToRDown unit.Bytes
	ToRUp   unit.Bytes
	AggUp   unit.Bytes
	Core    unit.Bytes
}

// creditDrainDelay is the max credit-queue delay at a port of the given
// rate: queue capacity × one credit service interval. Credits are
// metered to one per (MinFrame+MaxFrame) of wire time.
func creditDrainDelay(n int, r unit.Rate) sim.Duration {
	return sim.Duration(n) * unit.TxTime(unit.MinFrame+unit.MaxFrame, r)
}

// linkRT is t(p,q): credit serialization + propagation one way, data
// serialization + propagation back, plus switching.
func (s Spec) linkRT(r unit.Rate, prop sim.Duration) sim.Duration {
	return unit.TxTime(unit.MinFrame, r) + unit.TxTime(unit.MaxFrame, r) +
		2*prop + 2*s.Switching
}

// portDelay tracks the recursion state for one ingress class.
type portDelay struct {
	min, max sim.Duration
	spread   sim.Duration // data buffering at this port, = max-min
}

func (p portDelay) dmaxTerm() sim.Duration { return p.max + p.spread }

// Compute runs the recursion and converts spreads to buffer bytes.
func (s Spec) Compute() Bounds {
	dataShare := 1 - unit.CreditRatio

	nic := portDelay{min: s.HostDelayMin, max: s.HostDelayMax}
	nic.spread = nic.max - nic.min

	cqHost := creditDrainDelay(s.CreditQueue, s.HostRate)
	cqFab := creditDrainDelay(s.CreditQueue, s.FabricRate)
	tHost := s.linkRT(s.HostRate, s.EdgeProp)
	tFab := s.linkRT(s.FabricRate, s.EdgeProp)
	tCore := s.linkRT(s.FabricRate, s.CoreProp)

	// Descending-credit chain (credits flowing down toward senders).
	// A: ToR ingress from agg; next hops = rack NICs. The data coming
	// back ascends the ToR uplink, so A's spread sizes ToR up ports.
	A := portDelay{min: tHost + nic.min, max: cqHost + tHost + nic.dmaxTerm()}
	A.spread = A.max - A.min
	// B: Agg ingress from core; next hops = class-A ports at ToRs.
	// Sizes agg up ports (not reported in Table 1 but computed).
	B := portDelay{min: tFab + A.min, max: cqFab + tFab + A.dmaxTerm()}
	B.spread = B.max - B.min
	// C: Core ingress from agg; next hops = class-B ports. Sizes core
	// ports.
	C := portDelay{min: tCore + B.min, max: cqFab + tCore + B.dmaxTerm()}
	C.spread = C.max - C.min

	// Ascending-credit chain. E: Agg ingress from ToR; next hops are
	// cores above (class C) or sibling ToRs below (class A).
	E := portDelay{
		min: minDur(tCore+C.min, tFab+A.min),
		max: cqFab + maxDur(tCore+C.dmaxTerm(), tFab+A.dmaxTerm()),
	}
	E.spread = E.max - E.min
	// F: ToR ingress from host; next hops are rack NICs (intra-rack) or
	// aggs above (class E). Sizes ToR down ports — the largest spread,
	// since it spans the shortest (intra-rack) and longest (cross-core)
	// paths.
	F := portDelay{
		min: minDur(tHost+nic.min, tFab+E.min),
		max: maxDur(cqHost, cqFab) + maxDur(tHost+nic.dmaxTerm(), tFab+E.dmaxTerm()),
	}
	F.spread = F.max - F.min

	buf := func(d sim.Duration, r unit.Rate) unit.Bytes {
		return unit.Bytes(float64(d) / float64(sim.Second) * float64(r) * dataShare / 8)
	}
	return Bounds{
		ToRDownSpread: F.spread,
		ToRUpSpread:   A.spread,
		AggUpSpread:   B.spread,
		CoreSpread:    C.spread,
		ToRDown:       buf(F.spread, s.HostRate),
		ToRUp:         buf(A.spread, s.HostRate), // bounded by rack ingress rate
		AggUp:         buf(B.spread, s.FabricRate),
		Core:          buf(C.spread, s.FabricRate),
	}
}

// ToRSwitchTotal returns the worst-case buffer for one ToR switch with
// the given port counts (Fig 5's per-switch bars), split into the data
// requirement and the static credit-class carve-out.
func (s Spec) ToRSwitchTotal(downPorts, upPorts int) (data, credit unit.Bytes) {
	b := s.Compute()
	data = unit.Bytes(downPorts)*b.ToRDown + unit.Bytes(upPorts)*b.ToRUp
	perPort := unit.Bytes(s.CreditQueue) * unit.MaxCredit
	credit = unit.Bytes(downPorts+upPorts) * perPort
	return data, credit
}

func minDur(a, b sim.Duration) sim.Duration {
	if a < b {
		return a
	}
	return b
}

func maxDur(a, b sim.Duration) sim.Duration {
	if a > b {
		return a
	}
	return b
}
