// Package topology builds the network shapes the paper evaluates on:
// single-switch stars and dumbbells for microbenchmarks, the parking-lot
// and multi-bottleneck shapes of Fig 4/10/11, and k-ary fat trees /
// 3-tier Clos fabrics (optionally oversubscribed) for the realistic
// workloads of §6.3. All builders return fully-routed networks.
package topology

import (
	"fmt"

	"expresspass/internal/netem"
	"expresspass/internal/sim"
	"expresspass/internal/unit"
)

// Config carries the knobs shared by every builder. Every host gets the
// NIC-hardware credit-processing delay model (netem.HardwareNICDelay).
type Config struct {
	LinkRate  unit.Rate    // edge link speed (host–ToR and default fabric)
	CoreRate  unit.Rate    // fabric link speed; defaults to LinkRate
	LinkDelay sim.Duration // per-link propagation delay (default 4 µs)

	// Switch buffering.
	DataCapacity   unit.Bytes // per-port data budget (default 384.5 KB)
	CreditQueueCap int        // per-port credit budget in packets (default: netem's 8)
	CreditBurst    unit.Bytes // credit token bucket size (default: netem's two max-size credits)

	// CreditTailDrop disables random-victim credit dropping (Fig 6's
	// jitter ablation runs on plain drop-tail queues).
	CreditTailDrop bool

	// Optional per-port features, applied to every switch port; zero is
	// off (see netem.PortConfig).
	ECNThreshold unit.Bytes
	RED          bool
	RCP          sim.Duration
	Phantom      bool
	PFC          unit.Bytes
}

func (c Config) withDefaults() Config {
	if c.LinkRate == 0 {
		c.LinkRate = 10 * unit.Gbps
	}
	if c.CoreRate == 0 {
		c.CoreRate = c.LinkRate
	}
	if c.LinkDelay == 0 {
		c.LinkDelay = 4 * sim.Microsecond
	}
	if c.DataCapacity == 0 {
		c.DataCapacity = unit.Bytes(384.5 * 1000) // 250 MTUs, paper §6.3
	}
	return c
}

// newHost adds a host with the NIC-hardware credit-processing delay
// model, the one every builder uses.
func newHost(net *netem.Network, name string) *netem.Host {
	return net.NewHost(name, netem.HardwareNICDelay())
}

func (c Config) port(rate unit.Rate) netem.PortConfig {
	return netem.PortConfig{
		Rate:           rate,
		Delay:          c.LinkDelay,
		DataCapacity:   c.DataCapacity,
		CreditQueueCap: c.CreditQueueCap,
		CreditBurst:    c.CreditBurst,
		CreditTailDrop: c.CreditTailDrop,
		ECNThreshold:   c.ECNThreshold,
		RED:            c.RED,
		RCP:            c.RCP,
		Phantom:        c.Phantom,
		PFC:            c.PFC,
	}
}

// Star is N hosts hanging off one switch: the dumbbell/incast/shuffle
// substrate. With senders and receivers split across hosts, any single
// egress port can be made the bottleneck.
type Star struct {
	Net    *netem.Network
	Switch *netem.Switch
	Hosts  []*netem.Host
}

// NewStar builds a single-switch star with n hosts.
func NewStar(eng *sim.Engine, n int, cfg Config) *Star {
	cfg = cfg.withDefaults()
	net := netem.NewNetwork(eng)
	sw := net.NewSwitch("sw0")
	s := &Star{Net: net, Switch: sw}
	for i := 0; i < n; i++ {
		h := newHost(net, fmt.Sprintf("h%d", i))
		net.Connect(h, sw, cfg.port(cfg.LinkRate))
		s.Hosts = append(s.Hosts, h)
	}
	net.BuildRoutes()
	return s
}

// DownPort returns the switch egress port toward host i — the bottleneck
// for traffic converging on that host.
func (s *Star) DownPort(i int) *netem.Port {
	return s.Hosts[i].NIC().Peer()
}

// Dumbbell is N sender hosts and N receiver hosts joined by two switches
// and one shared middle link, the classic shared-bottleneck shape used by
// the flow-scalability experiments (Fig 15).
type Dumbbell struct {
	Net        *netem.Network
	Left       *netem.Switch
	Right      *netem.Switch
	Senders    []*netem.Host
	Receivers  []*netem.Host
	Bottleneck *netem.Port // left→right egress (data direction)
	Reverse    *netem.Port // right→left egress (credit direction)
}

// NewDumbbell builds a dumbbell with n host pairs. Edge links run at
// LinkRate and the middle link at CoreRate (LinkRate by default), so the
// middle link is the single bottleneck when more than one pair is
// active.
func NewDumbbell(eng *sim.Engine, n int, cfg Config) *Dumbbell {
	cfg = cfg.withDefaults()
	net := netem.NewNetwork(eng)
	left := net.NewSwitch("swL")
	right := net.NewSwitch("swR")
	d := &Dumbbell{Net: net, Left: left, Right: right}
	d.Bottleneck, d.Reverse = net.Connect(left, right, cfg.port(cfg.CoreRate))
	for i := 0; i < n; i++ {
		s := newHost(net, fmt.Sprintf("s%d", i))
		net.Connect(s, left, cfg.port(cfg.LinkRate))
		r := newHost(net, fmt.Sprintf("r%d", i))
		net.Connect(r, right, cfg.port(cfg.LinkRate))
		d.Senders = append(d.Senders, s)
		d.Receivers = append(d.Receivers, r)
	}
	net.BuildRoutes()
	return d
}

// ParkingLot is the multi-bottleneck chain of Fig 4(b)/Fig 10: Flow 0
// traverses all N links while Flow i (1..N) enters at switch i−1 and
// exits at switch i, each contributing one cross-flow per link.
type ParkingLot struct {
	Net      *netem.Network
	Switches []*netem.Switch
	// LongSrc/LongDst terminate the end-to-end flow.
	LongSrc, LongDst *netem.Host
	// CrossSrc[i]/CrossDst[i] terminate the one-hop flow over link i.
	CrossSrc, CrossDst []*netem.Host
	// Links[i] is the egress port of switch i toward switch i+1.
	Links []*netem.Port
}

// NewParkingLot builds a chain with n bottleneck links (n+1 switches).
func NewParkingLot(eng *sim.Engine, n int, cfg Config) *ParkingLot {
	cfg = cfg.withDefaults()
	net := netem.NewNetwork(eng)
	pl := &ParkingLot{Net: net}
	for i := 0; i <= n; i++ {
		pl.Switches = append(pl.Switches, net.NewSwitch(fmt.Sprintf("sw%d", i)))
	}
	for i := 0; i < n; i++ {
		fwd, _ := net.Connect(pl.Switches[i], pl.Switches[i+1], cfg.port(cfg.CoreRate))
		pl.Links = append(pl.Links, fwd)
	}
	pl.LongSrc = newHost(net, "src")
	net.Connect(pl.LongSrc, pl.Switches[0], cfg.port(cfg.LinkRate))
	pl.LongDst = newHost(net, "dst")
	net.Connect(pl.LongDst, pl.Switches[n], cfg.port(cfg.LinkRate))
	for i := 0; i < n; i++ {
		s := newHost(net, fmt.Sprintf("xs%d", i))
		net.Connect(s, pl.Switches[i], cfg.port(cfg.LinkRate))
		r := newHost(net, fmt.Sprintf("xr%d", i))
		net.Connect(r, pl.Switches[i+1], cfg.port(cfg.LinkRate))
		pl.CrossSrc = append(pl.CrossSrc, s)
		pl.CrossDst = append(pl.CrossDst, r)
	}
	net.BuildRoutes()
	return pl
}

// MultiBottleneck is the Fig 4(a)/Fig 11 shape: Flow 0 crosses Link 3
// only, while Flows 1..N cross Link 1 (shared among them) and then
// Link 3. Concretely: N sources attach to switch A, traverse A→B
// (Link 1), then join Flow 0 at B and share B→C (Link 3) to receivers
// on C.
type MultiBottleneck struct {
	Net      *netem.Network
	A, B, C  *netem.Switch
	Flow0Src *netem.Host
	Flow0Dst *netem.Host
	Srcs     []*netem.Host // flows 1..N sources (at A)
	Dsts     []*netem.Host // flows 1..N receivers (at C)
	Link1    *netem.Port   // A→B
	Link3    *netem.Port   // B→C
}

// NewMultiBottleneck builds the shape with n competing flows.
func NewMultiBottleneck(eng *sim.Engine, n int, cfg Config) *MultiBottleneck {
	cfg = cfg.withDefaults()
	net := netem.NewNetwork(eng)
	m := &MultiBottleneck{Net: net}
	m.A = net.NewSwitch("A")
	m.B = net.NewSwitch("B")
	m.C = net.NewSwitch("C")
	m.Link1, _ = net.Connect(m.A, m.B, cfg.port(cfg.CoreRate))
	m.Link3, _ = net.Connect(m.B, m.C, cfg.port(cfg.CoreRate))
	m.Flow0Src = newHost(net, "f0src")
	net.Connect(m.Flow0Src, m.B, cfg.port(cfg.LinkRate))
	m.Flow0Dst = newHost(net, "f0dst")
	net.Connect(m.Flow0Dst, m.C, cfg.port(cfg.LinkRate))
	for i := 0; i < n; i++ {
		s := newHost(net, fmt.Sprintf("ms%d", i))
		net.Connect(s, m.A, cfg.port(cfg.LinkRate))
		r := newHost(net, fmt.Sprintf("mr%d", i))
		net.Connect(r, m.C, cfg.port(cfg.LinkRate))
		m.Srcs = append(m.Srcs, s)
		m.Dsts = append(m.Dsts, r)
	}
	net.BuildRoutes()
	return m
}
