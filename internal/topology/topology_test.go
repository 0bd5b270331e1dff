package topology

import (
	"testing"
	"testing/quick"

	"expresspass/internal/netem"
	"expresspass/internal/packet"
	"expresspass/internal/sim"
	"expresspass/internal/unit"
)

func cfg10G() Config {
	return Config{LinkRate: 10 * unit.Gbps}
}

func TestStarShape(t *testing.T) {
	eng := sim.New(1)
	s := NewStar(eng, 5, cfg10G())
	if len(s.Hosts) != 5 {
		t.Fatalf("hosts = %d", len(s.Hosts))
	}
	if len(s.Switch.Ports()) != 5 {
		t.Fatalf("switch ports = %d", len(s.Switch.Ports()))
	}
	// Every host pair must be routable through the switch.
	for i, a := range s.Hosts {
		for j, b := range s.Hosts {
			if i == j {
				continue
			}
			if s.Net.TracePath(a.ID(), b.ID(), 1) == nil {
				t.Fatalf("no route %d→%d", i, j)
			}
		}
	}
	if s.DownPort(2).Peer().Owner() != s.Hosts[2] {
		t.Error("DownPort(2) does not face host 2")
	}
}

func TestDumbbellBottleneck(t *testing.T) {
	eng := sim.New(1)
	d := NewDumbbell(eng, 3, cfg10G())
	// Sender i to receiver i must cross the middle link.
	for i := range d.Senders {
		path := d.Net.TracePath(d.Senders[i].ID(), d.Receivers[i].ID(), packet.FlowID(i))
		if len(path) != 4 {
			t.Fatalf("path length %d, want 4 (host,swL,swR,host)", len(path))
		}
		if path[1] != d.Left.ID() || path[2] != d.Right.ID() {
			t.Fatalf("path %v does not cross swL→swR", path)
		}
	}
}

func TestParkingLotPaths(t *testing.T) {
	eng := sim.New(1)
	pl := NewParkingLot(eng, 4, cfg10G())
	long := pl.Net.TracePath(pl.LongSrc.ID(), pl.LongDst.ID(), 1)
	// Long flow: host + 5 switches + host.
	if len(long) != 7 {
		t.Fatalf("long path length %d, want 7", len(long))
	}
	for i := 0; i < 4; i++ {
		cross := pl.Net.TracePath(pl.CrossSrc[i].ID(), pl.CrossDst[i].ID(), packet.FlowID(i))
		if len(cross) != 4 {
			t.Fatalf("cross path %d length %d, want 4", i, len(cross))
		}
	}
}

func TestMultiBottleneckPaths(t *testing.T) {
	eng := sim.New(1)
	mb := NewMultiBottleneck(eng, 3, cfg10G())
	// Flow 0 crosses only B→C.
	p0 := mb.Net.TracePath(mb.Flow0Src.ID(), mb.Flow0Dst.ID(), 1)
	if len(p0) != 4 {
		t.Fatalf("flow0 path %v", p0)
	}
	// Cross flows traverse A→B→C.
	pc := mb.Net.TracePath(mb.Srcs[0].ID(), mb.Dsts[0].ID(), 2)
	if len(pc) != 5 {
		t.Fatalf("cross path %v", pc)
	}
}

func TestFatTreeShape(t *testing.T) {
	eng := sim.New(1)
	ft := NewFatTree(eng, 4, cfg10G())
	if len(ft.Hosts) != 16 || len(ft.ToRs) != 8 || len(ft.Aggs) != 8 || len(ft.Cores) != 4 {
		t.Fatalf("k=4 shape: hosts=%d tors=%d aggs=%d cores=%d",
			len(ft.Hosts), len(ft.ToRs), len(ft.Aggs), len(ft.Cores))
	}
	// Each ToR: 2 uplinks + 2 host ports; each core: k ports.
	for _, tor := range ft.ToRs {
		if len(tor.Ports()) != 4 {
			t.Fatalf("ToR ports = %d, want 4", len(tor.Ports()))
		}
	}
	for _, c := range ft.Cores {
		if len(c.Ports()) != 4 {
			t.Fatalf("core ports = %d, want k=4", len(c.Ports()))
		}
	}
}

func TestFatTreeAllPairsRoutable(t *testing.T) {
	eng := sim.New(1)
	ft := NewFatTree(eng, 4, cfg10G())
	for _, a := range ft.Hosts {
		for _, b := range ft.Hosts {
			if a == b {
				continue
			}
			if ft.Net.TracePath(a.ID(), b.ID(), 12345) == nil {
				t.Fatalf("unroutable pair %s→%s", a.Name(), b.Name())
			}
		}
	}
}

// TestFatTreePathSymmetry is the §3.1 property: a flow's packets in one
// direction must traverse exactly the reverse links of its packets in
// the other direction, for any flow ID and host pair (symmetric hashing
// + deterministic ECMP ordering).
func TestFatTreePathSymmetry(t *testing.T) {
	eng := sim.New(1)
	ft := NewFatTree(eng, 8, cfg10G()) // 128 hosts, real multipath
	n := len(ft.Hosts)
	f := func(ai, bi uint16, flow int64) bool {
		a := ft.Hosts[int(ai)%n].ID()
		b := ft.Hosts[int(bi)%n].ID()
		if a == b {
			return true
		}
		fwd := ft.Net.TracePath(a, b, packet.FlowID(flow))
		rev := ft.Net.TracePath(b, a, packet.FlowID(flow))
		if len(fwd) != len(rev) {
			return false
		}
		for i := range fwd {
			if fwd[i] != rev[len(rev)-1-i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// ECMP must actually spread different flows across different cores.
func TestFatTreeECMPSpreads(t *testing.T) {
	eng := sim.New(1)
	ft := NewFatTree(eng, 4, cfg10G())
	a := ft.Hosts[0].ID()  // pod 0
	b := ft.Hosts[15].ID() // pod 3
	cores := map[packet.NodeID]bool{}
	coreSet := map[packet.NodeID]bool{}
	for _, c := range ft.Cores {
		coreSet[c.ID()] = true
	}
	for flow := 0; flow < 64; flow++ {
		for _, node := range ft.Net.TracePath(a, b, packet.FlowID(flow)) {
			if coreSet[node] {
				cores[node] = true
			}
		}
	}
	if len(cores) < 3 {
		t.Errorf("64 flows used only %d cores", len(cores))
	}
}

func TestOversubTreeShape(t *testing.T) {
	eng := sim.New(1)
	ot := NewOversubTree(eng, PaperEval(), cfg10G())
	if len(ot.Hosts) != 192 {
		t.Fatalf("hosts = %d, want 192", len(ot.Hosts))
	}
	// 3:1 oversubscription: 6 host ports vs 2 uplinks per ToR.
	for ti, tor := range ot.ToRs {
		if len(ot.ToRUplinks[ti]) != 2 {
			t.Fatalf("ToR %d uplinks = %d", ti, len(ot.ToRUplinks[ti]))
		}
		if len(tor.Ports()) != 8 {
			t.Fatalf("ToR %d ports = %d, want 8", ti, len(tor.Ports()))
		}
	}
	if got := ot.UplinkCapacity(); got != unit.Rate(32*2)*10*unit.Gbps {
		t.Errorf("uplink capacity = %v", got)
	}
	// Cross-rack pairs must be routable.
	if ot.Net.TracePath(ot.Hosts[0].ID(), ot.Hosts[191].ID(), 5) == nil {
		t.Error("cross-fabric pair unroutable")
	}
}

func TestOversubTreeSymmetry(t *testing.T) {
	eng := sim.New(1)
	ot := NewOversubTree(eng, ScaledEval(), cfg10G())
	n := len(ot.Hosts)
	f := func(ai, bi uint16, flow int64) bool {
		a := ot.Hosts[int(ai)%n].ID()
		b := ot.Hosts[int(bi)%n].ID()
		if a == b {
			return true
		}
		fwd := ot.Net.TracePath(a, b, packet.FlowID(flow))
		rev := ot.Net.TracePath(b, a, packet.FlowID(flow))
		if fwd == nil || rev == nil || len(fwd) != len(rev) {
			return false
		}
		for i := range fwd {
			if fwd[i] != rev[len(rev)-1-i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	star := NewStar(sim.New(1), 2, c)
	if c.LinkRate != 10*unit.Gbps || star.DownPort(0).Config().CreditQueueCap != 8 {
		t.Errorf("defaults: %+v, port %+v", c, star.DownPort(0).Config())
	}
	if c.DataCapacity != unit.Bytes(384500) {
		t.Errorf("data capacity default %v, want 384.5KB (250 MTUs)", c.DataCapacity)
	}
	if h := star.Hosts[0]; h.Delay != netem.HardwareNICDelay() {
		t.Errorf("host delay model %+v, want the NIC-hardware one", h.Delay)
	}
}
