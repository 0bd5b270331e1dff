package netem

import (
	"testing"

	"expresspass/internal/packet"
	"expresspass/internal/sim"
	"expresspass/internal/unit"
)

// pfcChain builds host → switch → host with PFC on every link and a
// slow egress so the switch backlogs.
func pfcChain(t *testing.T, xoff unit.Bytes) (*sim.Engine, *Network, *Host, *Host, *Switch) {
	t.Helper()
	eng := sim.New(1)
	net := NewNetwork(eng)
	sw := net.NewSwitch("sw")
	// CreditQueueCap 16 holds the 10 credits TestPFCDoesNotPauseCredits
	// sends at once.
	fast := PortConfig{Rate: 10 * unit.Gbps, Delay: sim.Microsecond,
		DataCapacity: 16 * unit.MB, CreditQueueCap: 16, PFC: xoff}
	slow := fast
	slow.Rate = 1 * unit.Gbps
	src := net.NewHost("src", HardwareNICDelay())
	dst := net.NewHost("dst", HardwareNICDelay())
	net.Connect(src, sw, fast)
	net.Connect(dst, sw, slow)
	net.BuildRoutes()
	return eng, net, src, dst, sw
}

func TestPFCPausesUpstreamAndResumes(t *testing.T) {
	eng, net, src, dst, _ := pfcChain(t, 32*unit.KB)
	got := 0
	dst.Register(1, endpointFunc(func(p *packet.Packet) {
		got++
		net.Pool().Put(p)
	}))
	// Blast 10G into a 1G egress: the switch's ingress accounting for
	// the src link must cross XOff and pause the src NIC.
	var emit func()
	n := 0
	emit = func() {
		p := net.Pool().Get()
		p.Kind = packet.Data
		p.Flow = 1
		p.Src = src.ID()
		p.Dst = dst.ID()
		p.Wire = 1538
		p.Payload = 1460
		src.Send(p)
		if n++; n < 2000 {
			eng.After(unit.TxTime(1538, 10*unit.Gbps), emit)
		}
	}
	emit()
	eng.RunUntil(50 * sim.Millisecond)

	swIngress := src.NIC().Peer()
	if swIngress.Stats().PFCPauses == 0 {
		t.Fatal("no PAUSE generated under 10:1 overload")
	}
	if got != 2000 {
		t.Errorf("delivered %d/2000 — PFC should be lossless", got)
	}
	// After drain the pause must have been lifted: send one more.
	p := net.Pool().Get()
	p.Kind = packet.Data
	p.Flow = 1
	p.Src = src.ID()
	p.Dst = dst.ID()
	p.Wire = 1538
	src.Send(p)
	eng.RunUntil(60 * sim.Millisecond)
	if got != 2001 {
		t.Error("link still paused after drain (RESUME lost)")
	}
}

func TestPFCDoesNotPauseCredits(t *testing.T) {
	eng, net, src, dst, _ := pfcChain(t, 16*unit.KB)
	credits := 0
	src.Register(2, endpointFunc(func(p *packet.Packet) {
		credits++
		net.Pool().Put(p)
	}))
	// Saturate data toward dst to trigger pause on the src link, then
	// verify credits still flow in the same (paused) direction.
	for i := 0; i < 200; i++ {
		p := net.Pool().Get()
		p.Kind = packet.Data
		p.Flow = 1
		p.Src = src.ID()
		p.Dst = dst.ID()
		p.Wire = 1538
		src.Send(p)
	}
	eng.RunFor(100 * sim.Microsecond) // pause engages
	for i := 0; i < 10; i++ {
		c := net.Pool().Get()
		c.Kind = packet.Credit
		c.Flow = 2
		c.Src = dst.ID()
		c.Dst = src.ID()
		c.Wire = unit.MinFrame
		dst.Send(c)
	}
	eng.RunUntil(100 * sim.Millisecond)
	if credits != 10 {
		t.Errorf("credits delivered %d/10 — PFC must be per-priority (data only)", credits)
	}
}

func TestPFCAccountingBalancedAfterDrain(t *testing.T) {
	eng, net, src, dst, _ := pfcChain(t, 32*unit.KB)
	dst.Register(1, endpointFunc(func(p *packet.Packet) { net.Pool().Put(p) }))
	for i := 0; i < 500; i++ {
		p := net.Pool().Get()
		p.Kind = packet.Data
		p.Flow = 1
		p.Src = src.ID()
		p.Dst = dst.ID()
		p.Wire = 1538
		src.Send(p)
	}
	eng.Run()
	swIngress := src.NIC().Peer()
	if swIngress.pfc.ingressBytes != 0 {
		t.Errorf("ingress accounting leaked: %v", swIngress.pfc.ingressBytes)
	}
	if swIngress.pfc.pauseSent {
		t.Error("pause still asserted after drain")
	}
}
