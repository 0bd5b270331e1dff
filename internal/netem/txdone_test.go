package netem

import (
	"testing"

	"expresspass/internal/packet"
	"expresspass/internal/sim"
	"expresspass/internal/unit"
)

// Hand-computed cases at the exact picosecond a transmission ends. A
// port no longer queues its transmitter-done event unless a packet is
// waiting for it; whether the transmitter is free is then a question of
// dispatch order — has the engine reached the event's reserved key? —
// and these are the ties in which time alone gives the wrong answer.
// Every expectation below is what a port that always queued the event
// produces, worked out from the key order (time, dom, seq).
//
// Mutations the cases were checked against (sim.Engine.Reached): with
// "k.At <= now" the cases marked [≤] fail; with "k.At < now, or k is the
// key dispatching" the cases marked [<] fail (plain "k.At < now" makes a
// tx-done re-queue itself at its own key for ever). The cases marked [q]
// have a packet waiting at the instant, hence the event queued:
// Port.txQueued decides them whatever Reached says, and they fail when
// kick skips that test under "k.At <= now". The slice-boundary [<] case
// fails when RunUntil advances the clock without settling it.

const (
	tieRate  = 10 * unit.Gbps
	tieDelay = sim.Microsecond
	tieWire  = unit.Bytes(1538)
)

// tieTx is one serialisation time: 1538 B at 10 Gbps.
var tieTx = unit.TxTime(tieWire, tieRate)

// tieArrival is one packet seen by the destination host.
type tieArrival struct {
	at  sim.Time
	seq int64
	ce  bool
}

// tieRecorder is the endpoint at the destination host.
type tieRecorder struct {
	at  *Host
	got []tieArrival
}

func (r *tieRecorder) OnPacket(p *packet.Packet) {
	r.got = append(r.got, tieArrival{r.at.Engine().Now(), p.Seq, p.CE})
	r.at.Pool().Put(p)
}

// tieNet is three source hosts and one destination around one switch:
//
//	a, b, e  →  s  →  c
//
// every link 10 Gbps with 1 µs of propagation, s→c marking ECN above
// 2000 B. Host domains are 1–4. With lowLinks the switch takes domain
// 101 and the link directions 5–12, so arrivals at s sort before s's own
// events within an instant; otherwise s is 5 and the links 6–13, the
// order every topology builder produces.
type tieNet struct {
	eng        *sim.Engine
	net        *Network
	a, b, e, c *Host
	out        *Port // s→c
	rec        *tieRecorder
}

func newTieNet(t *testing.T, lowLinks bool) *tieNet {
	t.Helper()
	eng := sim.New(1)
	n := NewNetwork(eng)
	f := &tieNet{eng: eng, net: n}
	f.a, f.b = n.NewHost("a", HostDelayConfig{}), n.NewHost("b", HostDelayConfig{})
	f.e, f.c = n.NewHost("e", HostDelayConfig{}), n.NewHost("c", HostDelayConfig{})
	if lowLinks {
		n.nextDom = 100
	}
	s := n.NewSwitch("s")
	if lowLinks {
		n.nextDom = 4
	}
	cfg := PortConfig{Rate: tieRate, Delay: tieDelay}
	for _, h := range []*Host{f.a, f.b, f.e} {
		n.Connect(h, s, cfg)
	}
	cfg.ECNThreshold = 2000
	f.out, _ = n.Connect(s, f.c, cfg)
	n.BuildRoutes()
	f.rec = &tieRecorder{at: f.c}
	f.c.Register(1, f.rec)
	for _, in := range []*Host{f.a, f.b, f.e} {
		if ld := in.NIC().linkDom; (ld < s.dom) != lowLinks {
			t.Fatalf("fixture: switch dom %d, link %s dom %d", s.dom, in.NIC().Name(), ld)
		}
	}
	return f
}

// send offers one 1538 B ECN-capable data packet from h to c.
func (f *tieNet) send(h *Host, seq int64) {
	p := mkData(f.net.Pool(), tieWire)
	p.Src, p.Dst, p.Flow, p.Seq, p.ECNCapable = h.ID(), f.c.ID(), 1, seq, true
	h.Send(p)
}

func (f *tieNet) wantArrivals(t *testing.T, want ...tieArrival) {
	t.Helper()
	if len(f.rec.got) != len(want) {
		t.Fatalf("c saw %+v, want %+v", f.rec.got, want)
	}
	for i, w := range want {
		if f.rec.got[i] != w {
			t.Errorf("arrival %d at c = %+v, want %+v", i, f.rec.got[i], w)
		}
	}
}

// wantPort checks what a probe reads right after offering a packet: the
// frames the port has started and the bytes it holds back.
func wantPort(t *testing.T, where string, p *Port, txPackets uint64, queued unit.Bytes) {
	t.Helper()
	if st := p.Stats(); st.TxPackets != txPackets || st.DataQueueBytes != queued {
		t.Errorf("%s: %s has started %d frames and queues %d B; an always-queued tx-done gives %d and %d",
			where, p.Name(), st.TxPackets, st.DataQueueBytes, txPackets, queued)
	}
}

// TestTxDoneTieTwoArrivals lands two packets from different ingress
// links on s at the picosecond s→c finishes the packet before them.
//
// a sends #1 at 0: on the wire of s→c over [tx+d, 2tx+d]. b and e send
// #2 and #3 at tx, so both reach s at 2tx+d, the tx-done's instant.
func TestTxDoneTieTwoArrivals(t *testing.T) {
	run := func(t *testing.T, lowLinks bool) *tieNet {
		f := newTieNet(t, lowLinks)
		f.send(f.a, 1)
		f.eng.At(tieTx, func() {
			f.send(f.b, 2)
			f.send(f.e, 3)
		})
		f.eng.Run()
		return f
	}
	done := 2*tieTx + tieDelay // s→c finishes #1
	t.Run("from lower link domains [≤]", func(t *testing.T) {
		// Both arrivals run before the tx-done: the transmitter is still
		// taken, #2 and #3 queue together (3076 B, the second one over
		// the ECN threshold), and the tx-done then starts #2.
		f := run(t, true)
		f.wantArrivals(t,
			tieArrival{done + tieDelay, 1, false},
			tieArrival{done + tieTx + tieDelay, 2, false},
			tieArrival{done + 2*tieTx + tieDelay, 3, true})
		if got := f.out.Stats().DataQueueMaxBytes; got != 2*tieWire {
			t.Errorf("s→c peak occupancy %d B, want %d", got, 2*tieWire)
		}
	})
	t.Run("from higher link domains", func(t *testing.T) {
		// The order every topology builder produces, as the control: the
		// tx-done runs first and finds nothing, #2 arrives at a free
		// transmitter and leaves at once, #3 queues alone behind it —
		// same delivery times, but no mark and half the peak.
		f := run(t, false)
		f.wantArrivals(t,
			tieArrival{done + tieDelay, 1, false},
			tieArrival{done + tieTx + tieDelay, 2, false},
			tieArrival{done + 2*tieTx + tieDelay, 3, false})
		if got := f.out.Stats().DataQueueMaxBytes; got != tieWire {
			t.Errorf("s→c peak occupancy %d B, want %d", got, tieWire)
		}
	})
}

// TestTxDoneTieOwnDomain offers a packet from an event in the port's own
// domain at the instant its tx-done is due: a host timer and its NIC.
// Only the sequence numbers order the two.
func TestTxDoneTieOwnDomain(t *testing.T) {
	t.Run("scheduled before the transmission [≤]", func(t *testing.T) {
		f := newTieNet(t, false)
		nic := f.a.NIC()
		f.eng.AtD(f.a.Dom(), tieTx, func() { // smaller seq than the tx-done
			f.send(f.a, 2)
			wantPort(t, "timer before the tx-done", nic, 1, tieWire)
		})
		f.send(f.a, 1)
		f.eng.Run()
		wantPort(t, "end of run", nic, 2, 0)
	})
	t.Run("scheduled after it [<]", func(t *testing.T) {
		f := newTieNet(t, false)
		nic := f.a.NIC()
		f.send(f.a, 1)
		f.eng.AtD(f.a.Dom(), tieTx, func() { // larger seq than the tx-done
			f.send(f.a, 2)
			wantPort(t, "timer after the tx-done", nic, 2, 0)
		})
		f.eng.Run()
	})
}

// TestTxDoneTieGlobalEvents runs dom-0 events — experiment closures,
// fault schedules, a PFC resume applied by hand — at the instant a NIC's
// tx-done is due. Dom 0 sorts first: the transmitter is still taken.
func TestTxDoneTieGlobalEvents(t *testing.T) {
	t.Run("send [≤]", func(t *testing.T) {
		f := newTieNet(t, false)
		nic := f.a.NIC()
		f.send(f.a, 1)
		f.eng.At(tieTx, func() {
			f.send(f.a, 2)
			wantPort(t, "dom-0 send at the tx-done's instant", nic, 1, tieWire)
		})
		f.eng.Run()
		f.wantArrivals(t,
			tieArrival{2*tieTx + 2*tieDelay, 1, false},
			tieArrival{3*tieTx + 2*tieDelay, 2, false})
	})
	t.Run("PFC resume [q]", func(t *testing.T) {
		f := newTieNet(t, false)
		nic := f.a.NIC()
		nic.setDataPaused(true)
		f.send(f.a, 1) // held by the pause
		f.eng.At(tieTx/2, func() {
			nic.setDataPaused(false) // #1 starts: done at 3tx/2
			nic.setDataPaused(true)
			f.send(f.a, 2) // waits, paused, behind #1
		})
		f.eng.At(tieTx/2+tieTx, func() {
			nic.setDataPaused(false)
			wantPort(t, "resume at the tx-done's instant", nic, 1, tieWire)
		})
		f.eng.Run()
		wantPort(t, "end of run", nic, 2, 0)
	})
	t.Run("link up again [≤]", func(t *testing.T) {
		f := newTieNet(t, false)
		nic := f.a.NIC()
		f.send(f.a, 1)
		f.eng.At(tieTx/2, func() { f.net.SetLinkDown(nic, true) })
		f.eng.At(tieTx, func() {
			f.net.SetLinkDown(nic, false) // kicks both directions: nothing waits
			f.send(f.a, 2)
			wantPort(t, "restore at the tx-done's instant", nic, 1, tieWire)
		})
		f.eng.Run()
		// #1 was on the wire with the link back up by its arrival; #2
		// left when the tx-done ran, at tx.
		f.wantArrivals(t,
			tieArrival{2*tieTx + 2*tieDelay, 1, false},
			tieArrival{3*tieTx + 2*tieDelay, 2, false})
	})
	t.Run("flush mid-serialisation [q]", func(t *testing.T) {
		f := newTieNet(t, false)
		nic := f.a.NIC()
		f.send(f.a, 1)
		f.send(f.a, 2) // waits: the tx-done is queued
		f.eng.At(tieTx/2, func() {
			f.net.SetLinkDown(nic, true) // #2 is flushed; the tx-done stays queued
			f.net.SetLinkDown(nic, false)
		})
		f.eng.At(tieTx, func() {
			f.send(f.a, 3)
			wantPort(t, "send at the tx-done's instant, after the flush", nic, 1, tieWire)
		})
		f.eng.Run()
		if d := nic.Stats().FaultDrops; d != 1 {
			t.Errorf("flush destroyed %d packets, want 1", d)
		}
		f.wantArrivals(t,
			tieArrival{2*tieTx + 2*tieDelay, 1, false},
			tieArrival{3*tieTx + 2*tieDelay, 3, false})
	})
}

// TestTxDoneTieSetupCode offers packets from outside any event: before
// the first run, and between two RunFor slices whose boundary is the
// tx-done's instant (by then everything at the boundary has run).
func TestTxDoneTieSetupCode(t *testing.T) {
	f := newTieNet(t, false)
	nic := f.a.NIC()
	f.send(f.a, 1)
	wantPort(t, "first send before Run", nic, 1, 0)
	f.send(f.a, 2)
	wantPort(t, "second send before Run", nic, 1, tieWire)
	// The last event dispatched before the boundary is a dom-0 one (a
	// sampler tick, say): below the NIC's domain, a picosecond early.
	f.eng.At(2*tieTx-1, func() {})
	f.eng.RunFor(2 * tieTx) // #2 finishes at the boundary; nothing waited for it
	f.send(f.a, 3)
	wantPort(t, "send between slices, at the boundary [<]", nic, 3, 0)
	f.eng.RunFor(tieTx / 2)
	f.send(f.a, 4)
	wantPort(t, "send between slices, mid-serialisation", nic, 3, tieWire)
	f.eng.Run()
	wantPort(t, "end of run", nic, 4, 0)
	f.wantArrivals(t,
		tieArrival{2*tieTx + 2*tieDelay, 1, false},
		tieArrival{3*tieTx + 2*tieDelay, 2, false},
		tieArrival{4*tieTx + 2*tieDelay, 3, false},
		tieArrival{5*tieTx + 2*tieDelay, 4, false})
}
