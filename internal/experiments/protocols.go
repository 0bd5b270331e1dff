package experiments

import (
	"cmp"
	"fmt"

	"expresspass/internal/core"
	"expresspass/internal/cubic"
	"expresspass/internal/dcqcn"
	"expresspass/internal/dctcp"
	"expresspass/internal/dx"
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

// protoSpec is one protocol: the switch-side features it installs into a
// topology config (none: credit queues suffice) and its flow transport.
type protoSpec struct {
	features func(cfg *topology.Config, baseRTT sim.Duration)
	dial     func(e *Env, f *transport.Flow) Handle
}

// protoSpecs is the one protocol table: a protocol is its entry here.
var protoSpecs = map[Proto]protoSpec{
	ProtoExpressPass: {dial: func(e *Env, f *transport.Flow) Handle {
		cfg := e.XP
		cfg.BaseRTT = cmp.Or(cfg.BaseRTT, e.BaseRTT)
		return core.Dial(f, cfg)
	}},
	ProtoDCTCP: {
		features: func(cfg *topology.Config, _ sim.Duration) {
			cfg.ECNThreshold = dctcp.RecommendedK(cmp.Or(cfg.LinkRate, 10*unit.Gbps))
		},
		dial: func(e *Env, f *transport.Flow) Handle { return e.ecnWindow(f) },
	},
	// HULL (Alizadeh et al., NSDI 2012): phantom queues mark ahead of any
	// real queue, and the hosts run DCTCP against those marks.
	ProtoHULL: {
		features: func(cfg *topology.Config, _ sim.Duration) { cfg.Phantom = true },
		dial:     func(e *Env, f *transport.Flow) Handle { return e.ecnWindow(f) },
	},
	ProtoCubic: {dial: func(e *Env, f *transport.Flow) Handle {
		return transport.NewConn(f, cubic.New(), transport.ConnConfig{MinRTO: e.MinRTO})
	}},
	ProtoDX: {dial: func(e *Env, f *transport.Flow) Handle {
		return transport.NewConn(f, dx.New(), transport.ConnConfig{MinRTO: e.MinRTO})
	}},
	ProtoDCQCN: {
		// DCQCN's deployment environment: RED marking on a PFC lossless fabric.
		features: func(cfg *topology.Config, _ sim.Duration) { cfg.RED, cfg.PFC = true, 8*unit.KB },
		dial: func(e *Env, f *transport.Flow) Handle {
			return transport.NewConn(f, dcqcn.New(),
				transport.ConnConfig{Mode: transport.ModePaced, ECN: true, MinRTO: e.MinRTO})
		},
	},
	ProtoRCP: {
		features: func(cfg *topology.Config, baseRTT sim.Duration) { cfg.RCP = baseRTT },
		dial: func(e *Env, f *transport.Flow) Handle {
			// RCP senders learn the router rate during the handshake: a
			// low-rate first RTT, then the first echoed rate.
			return transport.NewConn(f, rcp.New(), transport.ConnConfig{Mode: transport.ModePaced,
				InitRate: f.Sender.LineRate() / 100, MinRTO: e.MinRTO})
		},
	},
	ProtoIdeal: {dial: func(e *Env, f *transport.Flow) Handle {
		c := transport.NewConn(f, idealrate.CC{}, transport.ConnConfig{Mode: transport.ModePaced, MinRTO: e.MinRTO})
		if e.oracle == nil {
			e.oracle = idealrate.NewOracle(e.Net)
		}
		e.Eng.At(f.StartAt, func() { e.oracle.Attach(c) })
		prev := f.OnFinish
		f.OnFinish = func(fl *transport.Flow) {
			e.oracle.Detach(c)
			if prev != nil {
				prev(fl)
			}
		}
		return c
	}},
}

// Features installs the protocol's switch-side features into a topology
// config: ECN marking for DCTCP, explicit-rate meters for RCP, phantom
// queues for HULL. ExpressPass needs only the (default) credit queues.
func (pr Proto) Features(cfg *topology.Config, baseRTT sim.Duration) {
	if set := protoSpecs[pr].features; set != nil {
		set(cfg, baseRTT)
	}
}

// Env wraps one built network plus the per-protocol dialing knobs.
type Env struct {
	Eng     *sim.Engine
	Net     *netem.Network
	BaseRTT sim.Duration

	// XP carries ExpressPass per-flow parameters (α, w_init, …).
	XP core.Config
	// MinRTO is the window/rate baselines' minimum retransmission
	// timeout (zero: transport's 10 ms).
	MinRTO sim.Duration

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

// Dial attaches the protocol's transport to flow f.
func (e *Env) Dial(pr Proto, f *transport.Flow) Handle {
	if spec, ok := protoSpecs[pr]; ok {
		return spec.dial(e, f)
	}
	panic(fmt.Sprintf("experiments: unknown protocol %q", pr))
}

// ecnWindow dials DCTCP, the host side of DCTCP and HULL: an ECN window
// of at least 2 packets.
func (e *Env) ecnWindow(f *transport.Flow) Handle {
	return transport.NewConn(f, dctcp.New(), transport.ConnConfig{ECN: true, MinCwnd: 2, MinRTO: e.MinRTO})
}

// gbps converts delivered payload bytes over a duration to Gbps.
func gbps(b unit.Bytes, d sim.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(b) * 8 / d.Seconds() / 1e9
}

// dataUtil is the fraction of p's line rate its data-class wire bytes
// filled over window, the span since its last ResetStats.
func dataUtil(p *netem.Port, window sim.Duration) float64 {
	return float64(p.Stats().TxDataBytes) * 8 / window.Seconds() / float64(p.Rate())
}
