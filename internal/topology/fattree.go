package topology

import (
	"fmt"

	"expresspass/internal/netem"
	"expresspass/internal/sim"
	"expresspass/internal/unit"
)

// FatTree is a canonical k-ary fat tree: k pods, each with k/2 ToR and
// k/2 aggregation switches; (k/2)² core switches; aggregation switch j of
// every pod connects to cores [j·k/2, (j+1)·k/2). Host–ToR links run at
// cfg.LinkRate; fabric links at cfg.CoreRate. Core-layer links use
// CoreDelay (the paper uses 5 µs core / 1 µs edge in Table 1).
type FatTree struct {
	Net   *netem.Network
	K     int
	Hosts []*netem.Host
	ToRs  []*netem.Switch
	Aggs  []*netem.Switch
	Cores []*netem.Switch

	// ToRUp[t][a] is ToR t's egress toward its pod's agg a.
	ToRUp [][]*netem.Port
	// ToRDown[t][h] is ToR t's egress toward its h-th host.
	ToRDown [][]*netem.Port
}

// NewFatTree builds a k-ary fat tree (k even), with (k³)/4 hosts.
func NewFatTree(eng *sim.Engine, k int, cfg Config) *FatTree {
	if k%2 != 0 || k < 2 {
		panic("topology: fat tree arity must be even and >= 2")
	}
	cfg = cfg.withDefaults()
	net := netem.NewNetwork(eng)
	ft := &FatTree{Net: net, K: k}
	half := k / 2

	// Creation order fixes node IDs: cores first, then per pod the aggs,
	// ToRs, and hosts. Deterministic IDs keep ECMP ordering consistent
	// across pods, which the symmetric-routing property relies on.
	for c := 0; c < half*half; c++ {
		core := net.NewSwitch(fmt.Sprintf("core%d", c))
		// In a canonical fat tree the descent from a core is unique, so
		// the core salt is irrelevant; use the ToR salt for consistency
		// with the general mirror rule (see OversubTree).
		core.SetHashLevel(0)
		ft.Cores = append(ft.Cores, core)
	}
	for p := 0; p < k; p++ {
		for a := 0; a < half; a++ {
			agg := net.NewSwitch(fmt.Sprintf("agg%d.%d", p, a))
			agg.SetHashLevel(1)
			ft.Aggs = append(ft.Aggs, agg)
		}
		for t := 0; t < half; t++ {
			tor := net.NewSwitch(fmt.Sprintf("tor%d.%d", p, t))
			tor.SetHashLevel(0)
			ft.ToRs = append(ft.ToRs, tor)
		}
		for h := 0; h < half*half; h++ {
			ft.Hosts = append(ft.Hosts, newHost(net, fmt.Sprintf("h%d.%d", p, h)))
		}
	}

	corePort := cfg.port(cfg.CoreRate)
	edgePort := cfg.port(cfg.LinkRate)
	ft.ToRUp = make([][]*netem.Port, k*half)
	ft.ToRDown = make([][]*netem.Port, k*half)

	for p := 0; p < k; p++ {
		for a := 0; a < half; a++ {
			agg := ft.Aggs[p*half+a]
			// Agg a connects to cores [a*half, (a+1)*half).
			for c := 0; c < half; c++ {
				net.Connect(agg, ft.Cores[a*half+c], corePort)
			}
			for t := 0; t < half; t++ {
				tor := ft.ToRs[p*half+t]
				up, _ := net.Connect(tor, agg, corePort)
				ft.ToRUp[p*half+t] = append(ft.ToRUp[p*half+t], up)
			}
		}
		for t := 0; t < half; t++ {
			tor := ft.ToRs[p*half+t]
			for h := 0; h < half; h++ {
				host := ft.Hosts[p*half*half+t*half+h]
				_, down := net.Connect(host, tor, edgePort)
				ft.ToRDown[p*half+t] = append(ft.ToRDown[p*half+t], down)
			}
		}
	}
	net.BuildRoutes()
	return ft
}

// OversubTree is the evaluation fabric of §6.3: a 3-tier tree where all
// links run at the same speed and each ToR serves HostsPerToR hosts with
// UplinksPerToR uplinks. The paper's configuration (8 core, 16 agg,
// 32 ToR, 6 hosts/ToR, 2 uplinks/ToR, all 10G or all 40G) gives 3:1
// oversubscription at the ToR layer.
type OversubTree struct {
	Net   *netem.Network
	P     OversubParams
	Hosts []*netem.Host
	ToRs  []*netem.Switch
	Aggs  []*netem.Switch
	Cores []*netem.Switch
	// ToRUplinks[t] are ToR t's egress ports toward the aggs.
	ToRUplinks [][]*netem.Port
}

// OversubParams sizes an OversubTree.
type OversubParams struct {
	Cores, Aggs, ToRs, HostsPerToR int
	UplinksPerToR                  int // default 2
	// CoreLinksPerAgg defaults to Cores (full agg–core mesh): the paper
	// constrains only the ToR layer to 3:1, and a full mesh guarantees
	// min-hop connectivity between every agg pair.
	CoreLinksPerAgg int
}

// PaperEval is the §6.3 fabric (192 hosts, 3:1 oversubscription).
func PaperEval() OversubParams {
	return OversubParams{Cores: 8, Aggs: 16, ToRs: 32, HostsPerToR: 6,
		UplinksPerToR: 2}
}

// ScaledEval is a smaller fabric with the same 3:1 shape for quick runs
// (48 hosts).
func ScaledEval() OversubParams {
	return OversubParams{Cores: 2, Aggs: 4, ToRs: 8, HostsPerToR: 6,
		UplinksPerToR: 2}
}

// UplinkCapacity returns the aggregate ToR-uplink capacity, the
// reference the paper defines target load against.
func (ot *OversubTree) UplinkCapacity() unit.Rate {
	var total unit.Rate
	for _, ups := range ot.ToRUplinks {
		for _, p := range ups {
			total += p.Rate()
		}
	}
	return total
}

// NewOversubTree builds the oversubscribed 3-tier fabric.
func NewOversubTree(eng *sim.Engine, p OversubParams, cfg Config) *OversubTree {
	cfg = cfg.withDefaults()
	if p.UplinksPerToR == 0 {
		p.UplinksPerToR = 2
	}
	if p.CoreLinksPerAgg == 0 {
		p.CoreLinksPerAgg = p.Cores
	}
	net := netem.NewNetwork(eng)
	ot := &OversubTree{Net: net, P: p}
	for i := 0; i < p.Cores; i++ {
		core := net.NewSwitch(fmt.Sprintf("core%d", i))
		// Cores choose the *descent* agg toward a ToR — the mirror of
		// that ToR's up-choice — so they must share the ToR salt for
		// path symmetry.
		core.SetHashLevel(0)
		ot.Cores = append(ot.Cores, core)
	}
	for i := 0; i < p.Aggs; i++ {
		agg := net.NewSwitch(fmt.Sprintf("agg%d", i))
		agg.SetHashLevel(1)
		ot.Aggs = append(ot.Aggs, agg)
	}
	for i := 0; i < p.ToRs; i++ {
		tor := net.NewSwitch(fmt.Sprintf("tor%d", i))
		tor.SetHashLevel(0)
		ot.ToRs = append(ot.ToRs, tor)
	}
	corePort := cfg.port(cfg.CoreRate)
	edgePort := cfg.port(cfg.LinkRate)
	for a, agg := range ot.Aggs {
		for c := 0; c < p.CoreLinksPerAgg; c++ {
			core := ot.Cores[(a*p.CoreLinksPerAgg+c)%p.Cores]
			net.Connect(agg, core, corePort)
		}
	}
	ot.ToRUplinks = make([][]*netem.Port, p.ToRs)
	for t, tor := range ot.ToRs {
		for f := 0; f < p.UplinksPerToR; f++ {
			agg := ot.Aggs[(t*p.UplinksPerToR+f)%p.Aggs]
			up, _ := net.Connect(tor, agg, corePort)
			ot.ToRUplinks[t] = append(ot.ToRUplinks[t], up)
		}
		for h := 0; h < p.HostsPerToR; h++ {
			host := newHost(net, fmt.Sprintf("h%d.%d", t, h))
			net.Connect(host, tor, edgePort)
			ot.Hosts = append(ot.Hosts, host)
		}
	}
	net.BuildRoutes()
	return ot
}
