package netem

import (
	"testing"
	"unsafe"

	"expresspass/internal/packet"
	"expresspass/internal/sim"
	"expresspass/internal/unit"
)

// Footprint guards: what a port and a host keep must follow what is
// queued and which flows are live, not what has passed through. No
// timing, no RSS reading — slot counts only. The topology-level halves
// (a DCTCP dumbbell, the 256-pair demux sum) are in footprint_ext_test.go.

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
	eng, _, _, b, ab := pair(t, PortConfig{Rate: 10 * unit.Gbps, Delay: sim.Microsecond})
	for i := 0; i < 5000; i++ {
		ab.Enqueue(mkData(1538)) // straight to the transmitter
		ab.Enqueue(mkData(1538)) // waits one serialisation
		ab.Enqueue(mkData(1538)) // waits two
		ab.Enqueue(mkCredit())   // no credit class on this port: data too
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
	if got := len(ab.credit.ring.buf); got != 0 {
		t.Errorf("unused credit ring has %d slots, want 0", got)
	}
}

// countEP is an endpoint that counts and recycles what it is handed.
type countEP struct{ got int }

func (e *countEP) OnPacket(p *packet.Packet) { e.got++; packet.Put(p) }

// TestDemuxWindow: the endpoint table covers the span of IDs the host is
// party to, whatever order they arrive in; everything outside it, the
// holes inside it and negative IDs are unclaimed; the last Unregister
// releases it and the next Register re-bases it.
func TestDemuxWindow(t *testing.T) {
	deliver := func(h *Host, id packet.FlowID) {
		p := packet.Get()
		p.Flow = id
		h.Deliver(p, nil)
	}
	orders := map[string][]packet.FlowID{
		"ascending":   {1000, 1010, 1020, 1030, 1040},
		"descending":  {1040, 1030, 1020, 1010, 1000},
		"interleaved": {1020, 1000, 1040, 1010, 1030},
	}
	for name, ids := range orders {
		t.Run(name, func(t *testing.T) {
			before := packet.Live()
			h := NewNetwork(sim.New(1)).NewHost("h", HardwareNICDelay())
			eps := map[packet.FlowID]*countEP{}
			for i, id := range ids {
				eps[id] = &countEP{}
				h.Register(id, eps[id])
				if h.ActiveEndpoints() != i+1 {
					t.Fatalf("after %d registrations ActiveEndpoints = %d", i+1, h.ActiveEndpoints())
				}
			}
			h.Register(1020, eps[1020]) // again: replaces, does not count twice
			if h.ActiveEndpoints() != len(ids) {
				t.Fatalf("ActiveEndpoints = %d, want %d", h.ActiveEndpoints(), len(ids))
			}
			// Never larger than a table indexed by absolute ID would be,
			// and geometric growth at most doubles the 41-ID span.
			if n := len(h.eps); n < 41 || n > 82 {
				t.Errorf("window of %d slots for IDs 1000–1040", n)
			}
			for _, id := range ids {
				deliver(h, id)
				deliver(h, id)
			}
			for id, ep := range eps {
				if ep.got != 2 {
					t.Errorf("flow %d got %d packets, want 2", id, ep.got)
				}
			}
			for i, id := range []packet.FlowID{999, 0, 1015, 1041, 1 << 40, -1, -1 << 62} {
				deliver(h, id)
				if h.Unclaimed != uint64(i+1) {
					t.Fatalf("flow %d was not counted unclaimed (Unclaimed = %d)", id, h.Unclaimed)
				}
			}
			h.Unregister(1015) // a hole
			h.Unregister(5)    // outside
			h.Unregister(-3)
			for i, id := range ids {
				h.Unregister(id)
				h.Unregister(id) // twice: the count must not move twice
				if want := len(ids) - i - 1; h.ActiveEndpoints() != want {
					t.Fatalf("after unregistering %d flows ActiveEndpoints = %d, want %d", i+1, h.ActiveEndpoints(), want)
				}
			}
			if len(h.eps) != 0 {
				t.Errorf("window keeps %d slots with no endpoint registered", len(h.eps))
			}
			deliver(h, 1020)
			if h.Unclaimed != 8 {
				t.Errorf("delivery to a released window: Unclaimed = %d, want 8", h.Unclaimed)
			}
			far := &countEP{}
			h.Register(50_000, far)
			deliver(h, 50_000)
			if len(h.eps) != 1 || far.got != 1 {
				t.Errorf("re-based window: %d slots, %d delivered, want 1 and 1", len(h.eps), far.got)
			}
			// Down to ID 0 and no further.
			h.Register(0, &countEP{})
			if len(h.eps) != 50_001 || h.epsBase != 0 {
				t.Errorf("window [%d, +%d) after registering ID 0", h.epsBase, len(h.eps))
			}
			if live := packet.Live() - before; live != 0 {
				t.Errorf("%d packets leaked", live)
			}
		})
	}
}
