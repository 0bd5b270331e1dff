package transport

import (
	"testing"

	"expresspass/internal/netem"
	"expresspass/internal/packet"
	"expresspass/internal/sim"
	"expresspass/internal/topology"
	"expresspass/internal/unit"
)

// aimd is a minimal congestion control for exercising the reliability
// machinery in isolation.
type aimd struct {
	acks, frx, rto int
}

func (a *aimd) Init(*Conn) {}
func (a *aimd) OnAck(c *Conn, acked unit.Bytes, _ *packet.Packet, _ sim.Duration) {
	a.acks++
	c.Cwnd += float64(acked) / float64(unit.MTUPayload) / c.Cwnd
	c.ClampCwnd()
}
func (a *aimd) OnFastRetransmit(c *Conn) {
	a.frx++
	c.Cwnd /= 2
	c.ClampCwnd()
}
func (a *aimd) OnTimeout(c *Conn) {
	a.rto++
	c.Cwnd = c.Cfg.MinCwnd
}

func testNet(t *testing.T, queue unit.Bytes) (*sim.Engine, *topology.Dumbbell) {
	t.Helper()
	eng := sim.New(1)
	d := topology.NewDumbbell(eng, 2, topology.Config{
		LinkRate: 10 * unit.Gbps, LinkDelay: 2 * sim.Microsecond,
		DataCapacity: queue,
	})
	return eng, d
}

func TestConnDeliversExactly(t *testing.T) {
	eng, d := testNet(t, 16*unit.MB)
	f := NewFlow(d.Net, d.Senders[0], d.Receivers[0], 3*unit.MB, 0)
	NewConn(f, &aimd{}, ConnConfig{})
	eng.RunUntil(1 * sim.Second)
	if !f.Finished {
		t.Fatal("flow did not finish")
	}
	if f.BytesDelivered != 3*unit.MB {
		t.Errorf("delivered %v, want 3MB", f.BytesDelivered)
	}
	if f.FCT() <= 0 || f.FCT() > 100*sim.Millisecond {
		t.Errorf("implausible FCT %v", f.FCT())
	}
}

func TestConnRecoversFromDrops(t *testing.T) {
	// A 10-packet queue forces drops during slow start; the flow must
	// still deliver every byte exactly once.
	eng, d := testNet(t, 10*1538)
	f := NewFlow(d.Net, d.Senders[0], d.Receivers[0], 2*unit.MB, 0)
	cc := &aimd{}
	c := NewConn(f, cc, ConnConfig{})
	c.Cwnd = 64 // aimd.Init leaves the window alone: the flow starts at 64
	eng.RunUntil(2 * sim.Second)
	if !f.Finished {
		t.Fatalf("flow did not finish (acked %v)", c.AckSeqNum())
	}
	if f.BytesDelivered != 2*unit.MB {
		t.Errorf("delivered %v", f.BytesDelivered)
	}
	if d.Net.Stats().DataDrops == 0 {
		t.Error("test expected drops to exercise recovery")
	}
	if cc.frx == 0 && cc.rto == 0 {
		t.Error("no loss recovery happened despite drops")
	}
}

func TestConnFastRetransmitBeforeRTO(t *testing.T) {
	eng, d := testNet(t, 30*1538)
	f := NewFlow(d.Net, d.Senders[0], d.Receivers[0], 4*unit.MB, 0)
	cc := &aimd{}
	c := NewConn(f, cc, ConnConfig{MinRTO: 50 * sim.Millisecond})
	c.Cwnd = 128 // aimd.Init leaves the window alone: the flow starts at 128
	eng.RunUntil(3 * sim.Second)
	if !f.Finished {
		t.Fatal("not finished")
	}
	if cc.frx == 0 {
		t.Error("expected fast retransmits")
	}
}

func TestConnPacedModeRate(t *testing.T) {
	eng, d := testNet(t, 16*unit.MB)
	f := NewFlow(d.Net, d.Senders[0], d.Receivers[0], 0, 0)
	c := NewConn(f, &aimd{}, ConnConfig{Mode: ModePaced, InitRate: 1 * unit.Gbps})
	meas := 20 * sim.Millisecond
	eng.RunUntil(meas)
	got := float64(f.BytesDelivered) * 8 / meas.Seconds()
	// Paced at 1 Gbps wire → payload ≈ 0.95 Gbps.
	if got < 0.85e9 || got > 1.0e9 {
		t.Errorf("paced goodput %.3g bps at 1 Gbps pace", got)
	}
	c.Stop()
}

func TestConnStopUnregisters(t *testing.T) {
	eng, d := testNet(t, 16*unit.MB)
	f := NewFlow(d.Net, d.Senders[0], d.Receivers[0], 0, 0)
	c := NewConn(f, &aimd{}, ConnConfig{})
	eng.RunUntil(1 * sim.Millisecond)
	c.Stop()
	before := d.Senders[0].Unclaimed + d.Receivers[0].Unclaimed
	eng.RunUntil(2 * sim.Millisecond)
	// In-flight packets arriving after Stop land as unclaimed, and no
	// new traffic is generated.
	after := f.BytesDelivered
	eng.RunUntil(10 * sim.Millisecond)
	if f.BytesDelivered != after {
		t.Error("flow kept delivering after Stop")
	}
	_ = before
}

func TestConnRTTEstimation(t *testing.T) {
	eng, d := testNet(t, 16*unit.MB)
	f := NewFlow(d.Net, d.Senders[0], d.Receivers[0], 1*unit.MB, 0)
	c := NewConn(f, &aimd{}, ConnConfig{})
	eng.RunUntil(1 * sim.Second)
	// Base one-way ≈ 3 links × 2 µs + serialization; SRTT ≈ 2×one-way.
	if c.SRTT < 10*sim.Microsecond || c.SRTT > 100*sim.Microsecond {
		t.Errorf("SRTT = %v, implausible for this topology", c.SRTT)
	}
}

func TestFlowAccounting(t *testing.T) {
	eng := sim.New(1)
	d := topology.NewDumbbell(eng, 2, topology.Config{LinkRate: 10 * unit.Gbps})
	f := NewFlow(d.Net, d.Senders[0], d.Receivers[0], 1000, 5*sim.Millisecond)
	if f.FCT() != sim.Forever {
		t.Error("unfinished flow must report Forever FCT")
	}
	done := false
	f.OnFinish = func(*Flow) { done = true }
	f.Deliver(6*sim.Millisecond, 600)
	if f.Finished || done {
		t.Error("finished early")
	}
	f.Deliver(7*sim.Millisecond, 400)
	if !f.Finished || !done {
		t.Fatal("not finished after all bytes")
	}
	if f.FCT() != 2*sim.Millisecond {
		t.Errorf("FCT = %v, want 2ms", f.FCT())
	}
	if f.Remaining() != 0 {
		t.Errorf("Remaining = %v", f.Remaining())
	}
	if d := f.TakeDeliveredDelta(); d != 1000 {
		t.Errorf("delta = %v", d)
	}
	if d := f.TakeDeliveredDelta(); d != 0 {
		t.Errorf("second delta = %v", d)
	}
}

func TestLongRunningFlowNeverFinishes(t *testing.T) {
	eng, d := testNet(t, 16*unit.MB)
	f := NewFlow(d.Net, d.Senders[0], d.Receivers[0], 0, 0)
	c := NewConn(f, &aimd{}, ConnConfig{})
	eng.RunUntil(5 * sim.Millisecond)
	if f.Finished {
		t.Error("size-0 flow finished")
	}
	if f.BytesDelivered == 0 {
		t.Error("size-0 flow not sending")
	}
	c.Stop()
}

func TestConnConfigDefaults(t *testing.T) {
	c := ConnConfig{}.withDefaults()
	if c.MinCwnd != 1 {
		t.Errorf("defaults: %+v", c)
	}
	if c.MinRTO != 10*sim.Millisecond {
		t.Errorf("minRTO default %v", c.MinRTO)
	}
	// A new connection opens at the ns-2 initial window of 10 full
	// segments.
	_, d := testNet(t, 16*unit.MB)
	conn := NewConn(NewFlow(d.Net, d.Senders[0], d.Receivers[0], 0, 0), &aimd{}, c)
	if conn.Cwnd != 10 || conn.CwndBytes() != 10*unit.MTUPayload {
		t.Errorf("initial window %v packets, %v", conn.Cwnd, conn.CwndBytes())
	}
}

var _ = netem.PortConfig{}
