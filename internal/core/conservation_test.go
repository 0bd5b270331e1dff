package core_test

import (
	"testing"

	"expresspass/internal/core"
	"expresspass/internal/sim"
	"expresspass/internal/topology"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
)

// TestPacketConservation asserts the no-leak invariant: after a fully
// drained simulation (all flows finished, event queue empty), every
// packet ever allocated has been recycled — none were dropped without
// Put, none are stranded in queues.
func TestPacketConservation(t *testing.T) {
	eng := sim.New(31)
	st := topology.NewStar(eng, 9, topology.Config{LinkRate: 10 * unit.Gbps})
	cfg := core.Config{BaseRTT: 30 * sim.Microsecond}
	var flows []*transport.Flow
	for i := 1; i <= 8; i++ {
		// Incast with enough contention to exercise credit drops,
		// random-victim replacement, and control-packet paths.
		f := transport.NewFlow(st.Net, st.Hosts[i], st.Hosts[0], 256*unit.KB, 0)
		core.Dial(f, cfg)
		flows = append(flows, f)
	}
	eng.Run() // drain completely: pacers stop after CREDIT_STOP
	for i, f := range flows {
		if !f.Finished {
			t.Fatalf("flow %d unfinished; drain incomplete", i)
		}
	}
	if leaked := st.Net.Pool().Live(); leaked != 0 {
		t.Errorf("leaked %d packets (allocated but never recycled)", leaked)
	}
}
