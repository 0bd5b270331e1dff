package experiments

import (
	"testing"

	"expresspass/internal/sim"
)

// TestNoSynchronisedTimerBurst runs fig15's 256-flow RCP cell — 1026
// RCP ports on one engine — and holds the scheduler's own counters to
// what a model without a same-instant timer per port or per flow
// leaves: the largest wheel bucket stays small and almost no pop comes
// out of a crowded one (17 and 0.016% at this seed). With one rate
// timer per port this cell peaked at a 1077-event bucket and took 57%
// of its pops from crowded buckets; the calendar queue survives that
// (sim.TestBurstDrainScales), but it costs a heap operation per event
// and the bucket keeps the capacity for the rest of the run. A model
// change that arms such timers again fails here, with the counter in
// the message.
func TestNoSynchronisedTimerBurst(t *testing.T) {
	eng := sim.New(7)
	fig15Cell(eng, Params{Scale: 0.1, Seed: 7}.withDefaults(), 256, ProtoRCP)
	executed, crowded, peak := eng.Executed(), eng.CrowdedPops(), eng.PeakBucket()
	t.Logf("%d events, %d pops from crowded buckets (%.3f%%), peak bucket %d",
		executed, crowded, 100*float64(crowded)/float64(executed), peak)
	if peak >= 64 {
		t.Errorf("Engine.PeakBucket() = %d, want < 64: some model arms one timer per port or flow on a shared instant", peak)
	}
	if crowded*100 >= executed {
		t.Errorf("Engine.CrowdedPops() = %d of %d executed events, want < 1%%", crowded, executed)
	}
}
