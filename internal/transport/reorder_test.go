package transport_test

import (
	"testing"

	"expresspass/internal/dctcp"
	"expresspass/internal/netem"
	"expresspass/internal/packet"
	"expresspass/internal/sim"
	"expresspass/internal/topology"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
)

// holdBack stands between the network and a Conn's receiver. It keeps
// the first data segment at seq back until three later data segments
// have been delivered, then delivers it, and counts the arrivals of
// every segment.
type holdBack struct {
	inner    netem.Endpoint
	seq      int64
	held     *packet.Packet
	later    int
	arrivals map[int64]int
}

func (h *holdBack) OnPacket(p *packet.Packet) {
	h.arrivals[p.Seq]++
	if p.Seq == h.seq && h.arrivals[p.Seq] == 1 {
		h.held = p
		return
	}
	h.inner.OnPacket(p)
	if h.held != nil {
		if h.later++; h.later == 3 {
			held := h.held
			h.held = nil
			h.inner.OnPacket(held)
		}
	}
}

// recoveries is DCTCP that records, at each fast retransmit, the
// recovery point (the sender's next new byte) and the resends so far.
type recoveries struct {
	*dctcp.CC
	end, resent []int64
}

func (r *recoveries) OnFastRetransmit(c *transport.Conn) {
	r.end = append(r.end, c.NextSeqNum())
	r.resent = append(r.resent, int64(c.Retransmits))
	r.CC.OnFastRetransmit(c)
}

// TestHeldSegmentIsResentWithTheWindow holds segment #100 of a 2 MB
// DCTCP flow back past three later ones, on a dumbbell that loses
// nothing, and pins what Conn resends and why. The three later segments
// make three duplicate ACKs, so the sender fast-retransmits #100 and
// sets its recovery point. Then #100 arrives and the ACK jumps to #104,
// short of the recovery point: Conn takes it for a NewReno partial ACK
// and resends #104, which is in flight, not lost, and so on for every
// ACK up to the recovery point. There is no SACK and no undo. The copies
// reach the receiver after their originals, and once the recovery ends,
// three of their duplicate ACKs in a row start the next one, which
// resends its window again. The cascade runs to the flow's last byte:
// every segment from #100 on is sent twice, but the three that overtook
// it, and the window is halved at each of the 353 recoveries. In order,
// nothing is resent.
func TestHeldSegmentIsResentWithTheWindow(t *testing.T) {
	const size = 2 * unit.MB
	mss := int64(unit.MTUPayload)
	segments := (int64(size) + mss - 1) / mss
	run := func(held int64) (*transport.Flow, *transport.Conn, *recoveries, *holdBack) {
		eng := sim.New(1)
		d := topology.NewDumbbell(eng, 1, topology.Config{
			LinkRate: 10 * unit.Gbps, LinkDelay: 2 * sim.Microsecond,
			Port: netem.PortConfig{DataCapacity: 16 * unit.MB},
		})
		f := transport.NewFlow(d.Net, d.Senders[0], d.Receivers[0], size, 0)
		cc := &recoveries{CC: dctcp.New()}
		c := transport.NewConn(f, cc, 0)
		hb := &holdBack{inner: transport.ReceiverEndpoint(c), seq: held * mss, arrivals: map[int64]int{}}
		d.Receivers[0].Register(f.ID, hb)
		eng.RunUntil(sim.Second)
		if !f.Finished || f.BytesDelivered != size || d.Net.Stats().DataDrops != 0 || c.Timeouts != 0 {
			t.Fatalf("held #%d: finished %v, delivered %v, %d drops, %d timeouts",
				held, f.Finished, f.BytesDelivered, d.Net.Stats().DataDrops, c.Timeouts)
		}
		// Nothing is lost, so every resend arrives as a second copy.
		extra := 0
		for _, n := range hb.arrivals {
			extra += n - 1
		}
		if uint64(extra) != c.Retransmits {
			t.Errorf("held #%d: %d resends but %d second copies", held, c.Retransmits, extra)
		}
		return f, c, cc, hb
	}

	inOrder, c, cc, _ := run(-1)
	if c.Retransmits != 0 || len(cc.end) != 0 {
		t.Fatalf("in order: %d resends in %d recoveries, want none", c.Retransmits, len(cc.end))
	}

	f, c, cc, hb := run(100)
	t.Logf("%d segments, #100 held: %d resends in %d recoveries, FCT %v (%v in order)",
		segments, c.Retransmits, len(cc.end), f.FCT(), inOrder.FCT())
	for i := int64(0); i < segments; i++ {
		want := 1
		if i == 100 || i >= 104 {
			want = 2
		}
		if got := hb.arrivals[i*mss]; got != want {
			t.Errorf("segment #%d arrived %d times, want %d", i, got, want)
		}
	}
	if len(cc.end) < 2 {
		t.Fatalf("%d recoveries, want the cascade", len(cc.end))
	}
	// The first recovery resends #100, then one segment per partial ACK
	// from #104 to its recovery point; the next fast retransmit is one
	// more.
	if want := 1 + (cc.end[0]-104*mss)/mss + 1; cc.resent[1] != want {
		t.Errorf("first recovery (point #%d) left %d resends, want %d", cc.end[0]/mss, cc.resent[1], want)
	}
	if last := cc.end[len(cc.end)-1]; last != int64(size) {
		t.Errorf("last recovery point %d, want the flow's end %d", last, int64(size))
	}
	if len(cc.end) != 353 || f.FCT() < 4*inOrder.FCT() {
		t.Errorf("%d recoveries, FCT %v; want 353 and over 4x the in-order %v", len(cc.end), f.FCT(), inOrder.FCT())
	}
}
