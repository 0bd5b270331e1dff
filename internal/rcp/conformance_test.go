package rcp_test

import (
	"testing"

	"expresspass/internal/packet"
	"expresspass/internal/rcp"
	"expresspass/internal/sim"
	"expresspass/internal/topology"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
)

func pacedConn(t *testing.T) (*rcp.CC, *transport.Conn) {
	t.Helper()
	eng := sim.New(99)
	d := topology.NewDumbbell(eng, 2, topology.Config{})
	cc := rcp.New()
	f := transport.NewFlow(d.Net, d.Senders[0], d.Receivers[0], 0, 0)
	c := transport.NewConn(f, cc, 0)
	return cc, c
}

// TestRCPAdoptsEchoedRate drives the sender rule by hand: the pace rate
// is exactly the last nonzero rate the routers echoed — no filtering,
// no ramp.
func TestRCPAdoptsEchoedRate(t *testing.T) {
	cc, c := pacedConn(t)
	steps := []struct {
		echo unit.Rate // ack.RCPRate
		want unit.Rate // resulting PaceRate
	}{
		{5 * unit.Gbps, 5 * unit.Gbps},
		{0, 5 * unit.Gbps}, // no stamp: hold the previous rate
		{2 * unit.Gbps, 2 * unit.Gbps},
		{9 * unit.Gbps, 9 * unit.Gbps}, // instant ramp-up, no smoothing
	}
	for i, s := range steps {
		cc.OnAck(c, 1460, &packet.Packet{RCPRate: s.echo}, 0)
		if c.PaceRate != s.want {
			t.Fatalf("step %d: pace rate %v, want %v", i, c.PaceRate, s.want)
		}
	}
}

// TestRCPLossEventsLeaveRateAlone pins that loss handling is entirely
// router-driven: neither fast retransmit nor timeout touches the rate.
func TestRCPLossEventsLeaveRateAlone(t *testing.T) {
	cc, c := pacedConn(t)
	cc.OnAck(c, 1460, &packet.Packet{RCPRate: 3 * unit.Gbps}, 0)
	cc.OnFastRetransmit(c)
	cc.OnTimeout(c)
	if c.PaceRate != 3*unit.Gbps {
		t.Fatalf("loss events changed pace rate: %v", c.PaceRate)
	}
}
