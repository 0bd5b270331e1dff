package netem

import (
	"slices"
	"testing"

	"expresspass/internal/packet"
	"expresspass/internal/sim"
	"expresspass/internal/unit"
)

// classPair builds a one-link network with the given credit classes.
func classPair(t *testing.T, classes []CreditClassConfig) (*sim.Engine, *sink, *Port) {
	t.Helper()
	eng := sim.New(1)
	net := NewNetwork(eng)
	a, b := &sink{id: 0, pool: net.Pool()}, &sink{id: 1, pool: net.Pool()}
	net.nodes = []Node{a, b}
	ab, _ := net.Connect(a, b, PortConfig{
		Rate: 10 * unit.Gbps, Delay: 0,
		CreditQueueCap: 8, CreditClasses: classes,
	})
	return eng, b, ab
}

// txByClass returns the credits each class of p transmitted.
func txByClass(p *Port) []uint64 {
	tx := make([]uint64, len(p.credits.classes))
	for i := range p.credits.classes {
		tx[i] = p.credits.classes[i].tx
	}
	return tx
}

func offerCredits(eng *sim.Engine, ab *Port, class uint8, gap sim.Duration, until sim.Time) {
	var emit func()
	emit = func() {
		c := ab.net.Pool().Get()
		c.Kind = packet.Credit
		c.Class = class
		c.Wire = unit.MinFrame
		ab.Enqueue(c)
		if eng.Now() < until {
			eng.After(gap, emit)
		}
	}
	emit()
}

func TestCreditClassStrictPriority(t *testing.T) {
	eng, _, ab := classPair(t, []CreditClassConfig{
		{Priority: 0}, // high
		{Priority: 1}, // low
	})
	// Both classes offer at the full credit rate (2x overload total).
	gap := unit.TxTime(unit.MinFrame+unit.MaxFrame, 10*unit.Gbps)
	offerCredits(eng, ab, 0, gap, 10*sim.Millisecond)
	offerCredits(eng, ab, 1, gap, 10*sim.Millisecond)
	eng.RunUntil(10 * sim.Millisecond)
	tx := txByClass(ab)
	if tx[0] == 0 || tx[1] == 0 {
		t.Fatalf("classes starved: %v", tx)
	}
	// Strict priority: high class passes (nearly) everything it offers;
	// low class only scraps.
	if float64(tx[1]) > 0.1*float64(tx[0]) {
		t.Errorf("low class got %d vs high %d — priority not strict enough", tx[1], tx[0])
	}
}

func TestCreditClassWeightedShare(t *testing.T) {
	eng, _, ab := classPair(t, []CreditClassConfig{
		{Priority: 0, Weight: 2},
		{Priority: 0, Weight: 1},
	})
	gap := unit.TxTime(unit.MinFrame+unit.MaxFrame, 10*unit.Gbps)
	offerCredits(eng, ab, 0, gap, 10*sim.Millisecond)
	offerCredits(eng, ab, 1, gap, 10*sim.Millisecond)
	eng.RunUntil(10 * sim.Millisecond)
	tx := txByClass(ab)
	ratio := float64(tx[0]) / float64(tx[1])
	if ratio < 1.7 || ratio > 2.4 {
		t.Errorf("weighted 2:1 share came out %.2f (%v)", ratio, tx)
	}
}

func TestCreditClassUnderloadedClassUnaffected(t *testing.T) {
	eng, _, ab := classPair(t, []CreditClassConfig{
		{Priority: 0, Weight: 1},
		{Priority: 0, Weight: 1},
	})
	gap := unit.TxTime(unit.MinFrame+unit.MaxFrame, 10*unit.Gbps)
	// Class 0 offers 4x its share; class 1 offers only 10% of the link.
	offerCredits(eng, ab, 0, gap/4, 10*sim.Millisecond)
	offerCredits(eng, ab, 1, gap*10, 10*sim.Millisecond)
	eng.RunUntil(10 * sim.Millisecond)
	tx := txByClass(ab)
	// Class 1's modest offering passes in full (work-conserving DRR).
	offered1 := uint64(10 * sim.Millisecond / (gap * 10))
	if tx[1] < offered1-2 {
		t.Errorf("underloaded class delivered %d of %d", tx[1], offered1)
	}
}

func TestCreditClassOutOfRangeClamps(t *testing.T) {
	eng, b, ab := classPair(t, []CreditClassConfig{{Priority: 0}})
	c := ab.net.Pool().Get()
	c.Kind = packet.Credit
	c.Class = 7 // beyond configured classes
	c.Wire = unit.MinFrame
	ab.Enqueue(c)
	eng.Run()
	if b.credits != 1 {
		t.Error("out-of-range class packet lost")
	}
}

// TestClassStatsAccessors: each class keeps its own statistics, and a
// credit of a class beyond the configured ones is counted in the last
// class, where it queues.
func TestClassStatsAccessors(t *testing.T) {
	eng, _, ab := classPair(t, []CreditClassConfig{{Priority: 0}, {Priority: 1}})
	for _, class := range []uint8{0, 1, 9} {
		c := ab.net.Pool().Get()
		c.Kind = packet.Credit
		c.Class = class
		c.Wire = unit.MinFrame
		ab.Enqueue(c)
	}
	if e0, e1 := ab.credits.classes[0].stats.Enqueued, ab.credits.classes[1].stats.Enqueued; e0 != 1 || e1 != 2 {
		t.Errorf("enqueued per class = [%d %d], want [1 2]", e0, e1)
	}
	eng.Run()
	if tx := txByClass(ab); !slices.Equal(tx, []uint64{1, 2}) {
		t.Errorf("transmitted per class = %v, want [1 2]", tx)
	}
	if st := ab.Stats(); st.TxCreditPkts != 3 || st.CreditQueueLen != 0 {
		t.Errorf("Stats() = %+v, want 3 credits sent and none queued", st)
	}
}

// TestResetStatsCoversCreditClasses overloads a two-class port through a
// warm-up, resets, and requires every per-class figure to count from the
// reset on: ResetStats used to zero only the aggregate credit counters,
// which a port with CreditClasses never touches. A port without
// CreditClasses is one more input: its one implicit class (which class-1
// credits clamp to) must count the same way. The last case runs a PFC
// chain whose ports take duplicates, model losses, corruption, reorders
// and PAUSEs: after the reset, every counter of every port's Stats()
// reads 0 — ResetStats used to leave the fault and PFC counters alone.
func TestResetStatsCoversCreditClasses(t *testing.T) {
	for _, classes := range [][]CreditClassConfig{{{Priority: 0, Weight: 2}, {Priority: 0, Weight: 1}}, nil} {
		eng, _, ab := classPair(t, classes)
		gap := unit.TxTime(unit.MinFrame+unit.MaxFrame, 10*unit.Gbps)
		offerCredits(eng, ab, 0, gap, 10*sim.Millisecond)
		offerCredits(eng, ab, 1, gap, 10*sim.Millisecond)
		eng.RunUntil(5 * sim.Millisecond)
		warm := txByClass(ab)
		if slices.Contains(warm, 0) || ab.Stats().CreditDrops == 0 || ab.credits.classes[len(warm)-1].stats.Enqueued == 0 {
			t.Fatalf("%d classes: warm-up left nothing to reset: tx %v, drops %d", len(classes), warm, ab.Stats().CreditDrops)
		}
		ab.ResetStats()
		if tx := txByClass(ab); slices.ContainsFunc(tx, func(n uint64) bool { return n != 0 }) {
			t.Errorf("%d classes: per-class credits sent = %v right after ResetStats", len(classes), tx)
		}
		if d := ab.Stats().CreditDrops; d != 0 {
			t.Errorf("%d classes: CreditDrops = %d right after ResetStats", len(classes), d)
		}
		for c := range warm {
			if st := ab.credits.classes[c].stats; st.Drops != 0 || st.Enqueued != 0 || st.MaxPkts != 0 {
				t.Errorf("%d classes: class %d stats after ResetStats: %+v", len(classes), c, st)
			}
		}
		eng.RunUntil(10 * sim.Millisecond)
		// The second half repeats the first: per-class counts must come
		// out about equal to the warm-up's, not twice it.
		var sum uint64
		for c, tx := range txByClass(ab) {
			if tx == 0 || tx > warm[c]+warm[c]/10+2 {
				t.Errorf("%d classes: class %d sent %d credits after the reset, %d in the equal warm-up", len(classes), c, tx, warm[c])
			}
			sum += tx
		}
		if st := ab.Stats(); sum == 0 || st.TxCreditPkts != sum {
			t.Errorf("%d classes: per-class counts %v do not add up to TxCreditPkts %d", len(classes), txByClass(ab), st.TxCreditPkts)
		}
	}

	eng, net, src, dst, _ := pfcChain(t, 32*unit.KB)
	dst.Register(1, endpointFunc(func(p *packet.Packet) { net.Pool().Put(p) }))
	nic := src.NIC()
	nic.SetDuplication(0, 0.1, eng.Rand().Fork())
	nic.SetLossModel(nil, &dropEveryN{n: 10})
	nic.SetCorruption(0, 0.1, eng.Rand().Fork())
	nic.SetReorder(0.1, sim.Microsecond, eng.Rand().Fork())
	for i := 0; i < 1000; i++ {
		p := net.Pool().Get()
		p.Kind, p.Flow, p.Src, p.Dst, p.Wire = packet.Data, 1, src.ID(), dst.ID(), 1538
		src.Send(p)
	}
	eng.Run()
	if st := net.Stats(); st.FaultDups == 0 || st.FaultDrops == 0 || st.FaultCorrupts == 0 ||
		st.CorruptDrops == 0 || st.FaultReorders == 0 || st.PFCPauses == 0 {
		t.Fatalf("fault warm-up left a counter at 0: %+v", st)
	}
	net.ResetStats()
	for _, p := range net.AllPorts() {
		if st := p.Stats(); st != (PortStats{}) {
			t.Errorf("%s: Stats() right after ResetStats = %+v, want all 0", p.Name(), st)
		}
	}
}

func TestFailureExclusion(t *testing.T) {
	eng := sim.New(1)
	net := NewNetwork(eng)
	s1 := net.NewSwitch("s1")
	s2 := net.NewSwitch("s2")
	cfg := PortConfig{Rate: 10 * unit.Gbps, Delay: sim.Microsecond}
	// Two parallel links between the switches.
	l1ab, _ := net.Connect(s1, s2, cfg)
	net.Connect(s1, s2, cfg)
	a := net.NewHost("a", HardwareNICDelay())
	b := net.NewHost("b", HardwareNICDelay())
	net.Connect(a, s1, cfg)
	net.Connect(b, s2, cfg)
	net.BuildRoutes()

	if got := len(s1.Routes(b.ID())); got != 2 {
		t.Fatalf("healthy ECMP candidates = %d, want 2", got)
	}
	// Fail ONE direction of link 1: the whole link must be excluded in
	// BOTH directions (unidirectional failures break path symmetry).
	l1ab.Fail()
	net.BuildRoutes()
	if got := len(s1.Routes(b.ID())); got != 1 {
		t.Fatalf("post-failure candidates s1→b = %d, want 1", got)
	}
	if got := len(s2.Routes(a.ID())); got != 1 {
		t.Fatalf("post-failure candidates s2→a = %d, want 1 (reverse excluded too)", got)
	}
	// Traffic still flows over the surviving link.
	if net.TracePath(a.ID(), b.ID(), 1) == nil {
		t.Fatal("unroutable after single-link failure")
	}
	l1ab.Restore()
	net.BuildRoutes()
	if got := len(s1.Routes(b.ID())); got != 2 {
		t.Errorf("restore did not bring the link back: %d", got)
	}
}

func TestFailureDisconnectClearsRoutes(t *testing.T) {
	eng := sim.New(1)
	net := NewNetwork(eng)
	s1 := net.NewSwitch("s1")
	s2 := net.NewSwitch("s2")
	cfg := PortConfig{Rate: 10 * unit.Gbps, Delay: sim.Microsecond}
	link, _ := net.Connect(s1, s2, cfg)
	a := net.NewHost("a", HardwareNICDelay())
	b := net.NewHost("b", HardwareNICDelay())
	net.Connect(a, s1, cfg)
	net.Connect(b, s2, cfg)
	net.BuildRoutes()
	link.Fail()
	net.BuildRoutes()
	if s1.Routes(b.ID()) != nil {
		t.Error("stale route survives disconnection")
	}
	if net.TracePath(a.ID(), b.ID(), 1) != nil {
		t.Error("TracePath found a path through a dead link")
	}
}

func TestSprayingSpreadsPackets(t *testing.T) {
	eng := sim.New(1)
	net := NewNetwork(eng)
	s1 := net.NewSwitch("s1")
	s2 := net.NewSwitch("s2")
	cfg := PortConfig{Rate: 10 * unit.Gbps, Delay: sim.Microsecond}
	la, _ := net.Connect(s1, s2, cfg)
	lb, _ := net.Connect(s1, s2, cfg)
	a := net.NewHost("a", HardwareNICDelay())
	b := net.NewHost("b", HardwareNICDelay())
	net.Connect(a, s1, cfg)
	net.Connect(b, s2, cfg)
	net.BuildRoutes()
	s1.SetSpraying(true)

	for i := 0; i < 500; i++ {
		p := net.Pool().Get()
		p.Kind = packet.Data
		p.Flow = 1 // single flow: hashing would pin one link
		p.Src = a.ID()
		p.Dst = b.ID()
		p.Wire = 1538
		s1.Deliver(p, nil)
	}
	eng.Run()
	ta, tb := la.Stats().TxPackets, lb.Stats().TxPackets
	if ta < 150 || tb < 150 {
		t.Errorf("spray split %d/%d, want roughly even", ta, tb)
	}
}
