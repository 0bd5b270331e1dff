package experiments

import (
	"testing"

	"expresspass/internal/sim"
)

// TestNoSynchronisedTimerBurst runs fig15's 256-flow RCP cell — 1026
// RCP ports on one engine — and holds the scheduler's own counter to
// what a model without a same-instant timer per port or per flow
// leaves: no walk spills. The calendar keeps each bucket sorted by
// walking back from its tail and gives up after a dozen links, which
// only a crowd of events on one picosecond, placed against (dom, seq)
// order, makes it do; 24 of the 29 registered experiments read 0 (a
// fault schedule or a sampler puts tens to hundreds on the rest), and
// what else reaches the heap is far timers (2.1% of this cell's pops). With
// rcp.go's clock taken apart again into one rate timer per port the cell
// reads 322 spills — each rebuild re-places the 1026 timers parked in
// the heap in heap order, not key order — on 2.3x the events and a peak
// heap of 1286. Timers that fire and re-arm in key order the rings take
// at no extra cost per event, so the spills are the scheduler's half of
// the damage and the event count the larger half; a model change that
// arms such timers again fails here, with the counter in the message.
func TestNoSynchronisedTimerBurst(t *testing.T) {
	eng := sim.New(7)
	fig15Cell(eng, Params{Scale: 0.1, Seed: 7}.withDefaults(), 256, ProtoRCP)
	executed, spills, heapPops, peak := eng.Executed(), eng.WalkSpills(), eng.HeapPops(), eng.PeakHeap()
	t.Logf("%d events, %d walk spills, %d heap pops (%.1f%%), peak heap %d",
		executed, spills, heapPops, 100*float64(heapPops)/float64(executed), peak)
	if spills != 0 {
		t.Errorf("Engine.WalkSpills() = %d over %d executed events, want 0: some model arms one timer per port or flow on a shared instant", spills, executed)
	}
}
