package netem

import (
	"expresspass/internal/obs"
	"expresspass/internal/packet"
	"expresspass/internal/unit"
)

// pfcState is IEEE 802.1Qbb priority flow control on one port's
// ingress (the receiving node's port for that link), with its egress
// pause state. When the data buffered *from* the upstream link (counted
// from arrival until it departs some egress of this node) exceeds the
// XOff threshold PortConfig.PFC, a PAUSE is signalled to the upstream
// transmitter; once it drains below XOn = XOff/2, a RESUME follows. PFC
// gives losslessness to reactive protocols (DCQCN's deployment
// requirement) at the price of head-of-line blocking and congestion
// spreading — the comparison point §1 draws against ExpressPass, which
// needs no PFC.
//
// Only the data class is paused; ExpressPass credits (and control
// frames) ride the credit class and keep flowing, mirroring PFC's
// per-priority semantics.
type pfcState struct {
	// ingressBytes counts data that arrived over this port's link and
	// has not yet departed an egress of this node.
	ingressBytes unit.Bytes
	pauseSent    bool
	pauses       uint64 // PAUSE frames signalled upstream
}

// pfcOnArrival accounts an arriving data packet against the ingress
// port's buffer and signals PAUSE when crossing XOff. in is the
// receiving node's port on the arrival link.
func (in *Port) pfcOnArrival(pkt *packet.Packet) {
	st := in.pfc
	if st == nil || pkt.Kind != packet.Data {
		return
	}
	st.ingressBytes += pkt.Wire
	pkt.PFCIngress = in.Number()
	if !st.pauseSent && st.ingressBytes > in.cfg.PFC {
		st.pauseSent = true
		st.pauses++
		if tr := in.trace; tr != nil {
			tr.Emit(obs.Event{T: in.eng.Now(), Type: obs.EvPFCPause, Port: in.Number(),
				Scope: in.name, Val: float64(st.ingressBytes)})
		}
		// PAUSE frames are tiny and bypass queues; model as a control
		// signal delivered after one propagation delay. It executes at
		// the upstream node, so it rides this link direction's delivery
		// domain like any arrival.
		in.eng.At2D(in.linkDom, in.eng.Now()+in.cfg.Delay, portSetDataPaused, in.peer, nil, 1)
	}
}

// pfcOnDepart releases the ingress accounting when the packet leaves
// any egress of the node it was buffered at.
func (p *Port) pfcOnDepart(pkt *packet.Packet) {
	if pkt.PFCIngress == 0 {
		return
	}
	idx := int(pkt.PFCIngress - 1)
	pkt.PFCIngress = 0
	if p.net == nil || idx >= len(p.net.ports) {
		return
	}
	in := p.net.ports[idx]
	st := in.pfc
	if st == nil {
		return
	}
	st.ingressBytes -= pkt.Wire
	if st.pauseSent && st.ingressBytes < in.cfg.PFC/2 {
		st.pauseSent = false
		if tr := in.trace; tr != nil {
			tr.Emit(obs.Event{T: in.eng.Now(), Type: obs.EvPFCResume, Port: in.Number(),
				Scope: in.name, Val: float64(st.ingressBytes)})
		}
		in.eng.At2D(in.linkDom, in.eng.Now()+in.cfg.Delay, portSetDataPaused, in.peer, nil, 0)
	}
}

// setDataPaused gates the egress data class (credits keep flowing).
func (p *Port) setDataPaused(paused bool) {
	p.dataPaused = paused
	if !paused {
		p.kick()
	}
}
