package core_test

import (
	"testing"

	"expresspass/internal/core"
	"expresspass/internal/sim"
	"expresspass/internal/stats"
	"expresspass/internal/topology"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
)

// TestSmokeTwoFlows drives two long-running ExpressPass flows over a
// shared 10G bottleneck and checks the headline invariants: zero data
// loss, high utilization, and fair sharing.
func TestSmokeTwoFlows(t *testing.T) {
	eng := sim.New(1)
	d := topology.NewDumbbell(eng, 2, topology.Config{LinkRate: 10 * unit.Gbps})
	cfg := core.Config{BaseRTT: 100 * sim.Microsecond}

	var flows []*transport.Flow
	for i := 0; i < 2; i++ {
		f := transport.NewFlow(d.Net, d.Senders[i], d.Receivers[i], 0, 0)
		core.Dial(f, cfg)
		flows = append(flows, f)
	}
	warm := 10 * sim.Millisecond
	eng.RunUntil(warm)
	before := make([]unit.Bytes, len(flows))
	for i, f := range flows {
		before[i] = f.BytesDelivered
	}
	meas := 10 * sim.Millisecond
	eng.RunUntil(warm + meas)

	var rates []float64
	for i, f := range flows {
		gbps := float64(f.BytesDelivered-before[i]) * 8 / meas.Seconds() / 1e9
		t.Logf("flow %d: %.3f Gbps", i, gbps)
		rates = append(rates, gbps)
	}
	if drops := d.Net.Stats().DataDrops; drops != 0 {
		t.Errorf("data drops = %d, want 0", drops)
	}
	total := rates[0] + rates[1]
	if total < 8.0 {
		t.Errorf("aggregate goodput %.2f Gbps, want > 8", total)
	}
	if j := stats.JainIndex(rates); j < 0.95 {
		t.Errorf("Jain index %.3f, want >= 0.95", j)
	}
	t.Logf("credit drops=%d events=%d", d.Net.Stats().CreditDrops, eng.Executed())
}
