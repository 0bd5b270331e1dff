package experiments

import (
	"fmt"

	"expresspass/internal/core"
	"expresspass/internal/cubic"
	"expresspass/internal/dcqcn"
	"expresspass/internal/dctcp"
	"expresspass/internal/dx"
	"expresspass/internal/hull"
	"expresspass/internal/idealrate"
	"expresspass/internal/netem"
	"expresspass/internal/rcp"
	"expresspass/internal/sim"
	"expresspass/internal/topology"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
)

// Proto names a congestion control under test.
type Proto string

// The protocols the evaluation compares.
const (
	ProtoExpressPass Proto = "expresspass"
	ProtoDCTCP       Proto = "dctcp"
	ProtoRCP         Proto = "rcp"
	ProtoDX          Proto = "dx"
	ProtoHULL        Proto = "hull"
	ProtoCubic       Proto = "cubic"
	ProtoIdeal       Proto = "ideal"
	ProtoDCQCN       Proto = "dcqcn"
)

// EvalProtos is the §6.3 comparison set, in paper order.
func EvalProtos() []Proto {
	return []Proto{ProtoExpressPass, ProtoRCP, ProtoDCTCP, ProtoDX, ProtoHULL}
}

// Features installs the protocol's switch-side features into a topology
// config: ECN marking for DCTCP, explicit-rate meters for RCP, phantom
// queues for HULL. ExpressPass needs only the (default) credit queues.
func (pr Proto) Features(cfg *topology.Config, baseRTT sim.Duration) {
	rate := cfg.LinkRate
	if rate == 0 {
		rate = 10 * unit.Gbps
	}
	switch pr {
	case ProtoDCTCP:
		cfg.ECNThreshold = dctcp.RecommendedK(rate)
	case ProtoRCP:
		cfg.RCP = &netem.RCPConfig{RTT: baseRTT}
	case ProtoHULL:
		cfg.Phantom = hull.PortFeature(hull.Config{})
	case ProtoDCQCN:
		// DCQCN's deployment environment: RED marking plus a PFC
		// lossless fabric.
		cfg.RED = true
		cfg.PFC = &netem.PFCConfig{XOff: 8 * unit.KB}
	}
}

// Env wraps one built network plus the per-protocol dialing knobs.
type Env struct {
	Eng     *sim.Engine
	Net     *netem.Network
	BaseRTT sim.Duration

	// XP carries ExpressPass per-flow parameters (α, w_init, …).
	XP core.Config
	// Conn carries reliability knobs for the window/rate baselines.
	Conn transport.ConnConfig

	oracle *idealrate.Oracle
}

// Handle lets experiments stop long-running transports. Its method set
// is a superset of lifecycle.Handle, so anything Env.Dial returns can
// be handed to a lifecycle.Manager for arrival/retirement management.
type Handle interface {
	Stop()
	// Quiesced reports the transport wound down on its own with no
	// pending timers (see core.Session.Quiesced / transport.Conn.Quiesced).
	Quiesced() bool
	// Retire tears the transport down and releases its observability
	// registrations.
	Retire()
}

type connHandle struct{ c *transport.Conn }

func (h connHandle) Stop()          { h.c.Stop() }
func (h connHandle) Quiesced() bool { return h.c.Quiesced() }
func (h connHandle) Retire()        { h.c.Retire() }

// Dial attaches the protocol's transport to flow f.
func (e *Env) Dial(pr Proto, f *transport.Flow) Handle {
	switch pr {
	case ProtoExpressPass:
		cfg := e.XP
		if cfg.BaseRTT == 0 {
			cfg.BaseRTT = e.BaseRTT
		}
		return core.Dial(f, cfg)
	case ProtoDCTCP:
		cfg := e.Conn
		cfg.ECN = true
		if cfg.MinCwnd == 0 {
			cfg.MinCwnd = 2
		}
		return connHandle{transport.NewConn(f, dctcp.New(dctcp.Config{InitAlpha: 1}), cfg)}
	case ProtoHULL:
		cfg := e.Conn
		cfg.ECN = true
		if cfg.MinCwnd == 0 {
			cfg.MinCwnd = 2
		}
		return connHandle{transport.NewConn(f, hull.New(hull.Config{}), cfg)}
	case ProtoCubic:
		return connHandle{transport.NewConn(f, cubic.New(), e.Conn)}
	case ProtoDX:
		return connHandle{transport.NewConn(f, dx.New(), e.Conn)}
	case ProtoDCQCN:
		cfg := e.Conn
		cfg.Mode = transport.ModePaced
		cfg.ECN = true
		return connHandle{transport.NewConn(f, dcqcn.New(), cfg)}
	case ProtoRCP:
		cfg := e.Conn
		cfg.Mode = transport.ModePaced
		if cfg.InitRate == 0 {
			// RCP senders learn the router rate during the handshake;
			// emulate with a low-rate first RTT before adopting the
			// first echoed rate.
			cfg.InitRate = f.Sender.LineRate() / 100
		}
		return connHandle{transport.NewConn(f, rcp.New(), cfg)}
	case ProtoIdeal:
		cfg := e.Conn
		cfg.Mode = transport.ModePaced
		c := transport.NewConn(f, idealrate.CC{}, cfg)
		if e.oracle == nil {
			e.oracle = idealrate.NewOracle(e.Net)
		}
		o := e.oracle
		e.Eng.At(f.StartAt, func() { o.Attach(c) })
		prev := f.OnFinish
		f.OnFinish = func(fl *transport.Flow) {
			o.Detach(c)
			if prev != nil {
				prev(fl)
			}
		}
		return connHandle{c}
	}
	panic(fmt.Sprintf("experiments: unknown protocol %q", pr))
}

// gbps converts delivered payload bytes over a duration to Gbps.
func gbps(b unit.Bytes, d sim.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(b) * 8 / d.Seconds() / 1e9
}
