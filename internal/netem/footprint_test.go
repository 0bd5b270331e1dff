package netem

import (
	"testing"
	"unsafe"

	"expresspass/internal/packet"
	"expresspass/internal/sim"
	"expresspass/internal/unit"
)

// Footprint guards: what a port and the flow table keep must follow what
// is queued and which flows are live, not what has passed through. No
// timing, no RSS reading — slot counts only. The topology-level halves
// (a DCTCP dumbbell, the 256-pair flow table) are in footprint_ext_test.go.

// TestPortStays696Bytes: Port is allocated once per link direction and
// buildRoutesTo's linkUp walks all of them with a stride of one Port. At
// 696 bytes it sits in the allocator's 704-byte size class; a ring with
// int head/count fields made it 712, the 768-byte class, and paper-scale
// fig15 (4,098 ports in its largest cell) read 7–10% slower, all of it
// in linkUp (130 → 500 ms): the strided walk then maps onto a quarter of
// the cache sets. A field added to Port, dataQueue, creditQueue or
// QueueStats has to fit in the existing padding or pay for a
// measurement (EXPERIMENTS.md "Where the RSS went, part two").
func TestPortStays696Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Port{}); got > 696 {
		t.Fatalf("netem.Port is %d bytes, want at most 696 (the 704-byte size class)", got)
	}
}

// TestRingTracksOccupancyNotTraffic: 10,000 packets through a port that
// never holds more than two leave a four-slot ring (the slice queue
// ended with a 128-slot array it cycled through end to end).
func TestRingTracksOccupancyNotTraffic(t *testing.T) {
	t.Parallel()
	eng, net, _, b, ab := pair(t, PortConfig{Rate: 10 * unit.Gbps, Delay: sim.Microsecond})
	for i := 0; i < 5000; i++ {
		ab.Enqueue(mkData(net.Pool(), 1538)) // straight to the transmitter
		ab.Enqueue(mkData(net.Pool(), 1538)) // waits one serialisation
		ab.Enqueue(mkData(net.Pool(), 1538)) // waits two
		ab.Enqueue(mkCredit(net.Pool()))     // the port's one implicit credit class
		eng.RunFor(10 * sim.Microsecond)
	}
	if b.got != 20000 {
		t.Fatalf("delivered %d of 20000", b.got)
	}
	if got := ab.data.stats.MaxPkts; got < 2 || got > 3 {
		t.Fatalf("peak occupancy %d packets: the scenario is not the one described", got)
	}
	if got := len(ab.data.ring.buf); got != ringMinSlots {
		t.Errorf("data ring has %d slots after 20000 packets at a peak of %d, want %d",
			got, ab.data.stats.MaxPkts, ringMinSlots)
	}
	if got := len(ab.credits.classes[0].ring.buf); got != ringMinSlots {
		t.Errorf("credit ring has %d slots after 5000 credits, want %d", got, ringMinSlots)
	}
}

// countEP is an endpoint that counts and recycles what it is handed.
type countEP struct {
	pool *packet.Pool
	got  int
}

func (e *countEP) OnPacket(p *packet.Packet) { e.got++; e.pool.Put(p) }

// TestFlowTable: the network's flow table serves both ends of a flow at
// their two hosts, in whatever order the IDs are registered; registering
// again replaces; a second Unregister changes nothing and leaves the
// other end in place; a packet for an ID never registered, above the
// table or negative, or at a host that is neither end of its flow, is
// unclaimed; and the table is never longer than the highest ID
// registered so far, plus one.
func TestFlowTable(t *testing.T) {
	orders := map[string][]packet.FlowID{
		"ascending":   {1000, 1010, 1020, 1030, 1040},
		"descending":  {1040, 1030, 1020, 1010, 1000},
		"interleaved": {1020, 1000, 1040, 1010, 1030},
	}
	for name, ids := range orders {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			net := NewNetwork(sim.New(1))
			snd := net.NewHost("snd", HardwareNICDelay())
			rcv := net.NewHost("rcv", HardwareNICDelay())
			other := net.NewHost("other", HardwareNICDelay())
			deliver := func(h *Host, id packet.FlowID) {
				p := net.Pool().Get()
				p.Flow = id
				h.Deliver(p, nil)
			}
			unclaimed := func() uint64 { return snd.Unclaimed + rcv.Unclaimed + other.Unclaimed }
			ends := map[packet.FlowID][2]*countEP{}
			var highest packet.FlowID
			for i, id := range ids {
				e := [2]*countEP{{pool: net.Pool()}, {pool: net.Pool()}}
				ends[id] = e
				snd.Register(id, e[0])
				rcv.Register(id, e[1])
				highest = max(highest, id)
				if got := net.ActiveEndpoints(); got != 2*(i+1) {
					t.Fatalf("after %d flows ActiveEndpoints = %d, want %d", i+1, got, 2*(i+1))
				}
				if got := DemuxSlots(net); got != int(highest)+1 {
					t.Fatalf("table of %d entries with IDs up to %d registered", got, highest)
				}
			}
			snd.Register(1020, ends[1020][0]) // again: replaces, does not count twice
			if got := net.ActiveEndpoints(); got != 2*len(ids) {
				t.Fatalf("ActiveEndpoints = %d, want %d", got, 2*len(ids))
			}
			for _, id := range ids {
				deliver(snd, id)
				deliver(rcv, id)
				deliver(rcv, id)
			}
			for id, e := range ends {
				if e[0].got != 1 || e[1].got != 2 {
					t.Errorf("flow %d: sender got %d, receiver %d, want 1 and 2", id, e[0].got, e[1].got)
				}
			}
			misses := []struct {
				at *Host
				id packet.FlowID
			}{
				{rcv, 999}, {snd, 0}, {rcv, 1015}, // never registered
				{snd, 1041}, {rcv, 1 << 40}, // above the table
				{snd, -1}, {rcv, -1 << 62}, // negative
				{other, 1020}, // a third host
			}
			for i, m := range misses {
				deliver(m.at, m.id)
				if unclaimed() != uint64(i+1) {
					t.Fatalf("flow %d at %s was not counted unclaimed", m.id, m.at.Name())
				}
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Error("registering a flow at a third host did not panic")
					}
				}()
				other.Register(1020, &countEP{pool: net.Pool()})
			}()
			snd.Unregister(1015) // an empty entry
			snd.Unregister(5000) // above the table
			snd.Unregister(-3)
			other.Unregister(1020) // not an end of the flow
			for i, id := range ids {
				snd.Unregister(id)
				snd.Unregister(id) // twice: must not touch the receiving end
				if want := 2*(len(ids)-i) - 1; net.ActiveEndpoints() != want {
					t.Fatalf("ActiveEndpoints = %d after the sender of flow %d left, want %d", net.ActiveEndpoints(), id, want)
				}
				deliver(rcv, id)
				if ends[id][1].got != 3 {
					t.Fatalf("flow %d: the receiving end lost its endpoint with the sender's", id)
				}
				rcv.Unregister(id)
			}
			deliver(rcv, 1020)
			if unclaimed() != uint64(len(misses)+1) {
				t.Errorf("delivery to an unregistered flow: Unclaimed = %d, want %d", unclaimed(), len(misses)+1)
			}
			snd.Register(7, &countEP{pool: net.Pool()}) // a low ID reuses the table
			if got := DemuxSlots(net); got != int(highest)+1 {
				t.Errorf("table of %d entries after registering ID 7, want %d", got, highest+1)
			}
			if live := net.Pool().Live(); live != 0 {
				t.Errorf("%d packets leaked", live)
			}
		})
	}
}
