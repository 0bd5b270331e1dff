package experiments

import (
	"testing"

	"expresspass/internal/sim"
	"expresspass/internal/topology"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
)

// longFlows builds a 10 Gbps dumbbell with pr's switch features and
// dials n long-running pr flows across it through the protocol table,
// the way every experiment does.
func longFlows(seed uint64, pr Proto, n int) (*sim.Engine, *topology.Dumbbell) {
	const rtt = 30 * sim.Microsecond
	eng := sim.New(seed)
	cfg := topology.Config{LinkRate: 10 * unit.Gbps, LinkDelay: 4 * sim.Microsecond}
	pr.Features(&cfg, rtt)
	d := topology.NewDumbbell(eng, n, cfg)
	env := &Env{Eng: eng, Net: d.Net, BaseRTT: rtt}
	for i := 0; i < n; i++ {
		env.Dial(pr, transport.NewFlow(d.Net, d.Senders[i], d.Receivers[i], 0, 0))
	}
	return eng, d
}

// TestHULLSacrificesBandwidthForLatency: HULL trades a little bandwidth
// (the phantom queue drains at 95% of line rate) for a near-empty real
// queue.
func TestHULLSacrificesBandwidthForLatency(t *testing.T) {
	eng, d := longFlows(1, ProtoHULL, 4)
	eng.RunUntil(20 * sim.Millisecond)
	d.Bottleneck.ResetStats()
	eng.RunFor(30 * sim.Millisecond)
	util := float64(d.Bottleneck.Stats().TxDataBytes) * 8 / 0.03 / 10e9
	if util > 0.99 {
		t.Errorf("utilization %.3f — phantom queue not biting", util)
	}
	if util < 0.70 {
		t.Errorf("utilization %.3f — far below the phantom drain rate", util)
	}
	if maxQ := d.Bottleneck.Stats().DataQueueMaxBytes; maxQ > 120*unit.KB {
		t.Errorf("real queue %v too large for HULL", maxQ)
	}
	if d.Net.Stats().DataDrops != 0 {
		t.Error("HULL dropped data")
	}
}

// TestHULLQueueBelowDCTCP: the same load under DCTCP, marking on the real
// queue at K instead of on the phantom one, queues more.
func TestHULLQueueBelowDCTCP(t *testing.T) {
	engH, dH := longFlows(2, ProtoHULL, 4)
	engH.RunUntil(40 * sim.Millisecond)
	engD, dD := longFlows(2, ProtoDCTCP, 4)
	engD.RunUntil(40 * sim.Millisecond)
	qH := dH.Bottleneck.Stats().DataQueueMaxBytes
	qD := dD.Bottleneck.Stats().DataQueueMaxBytes
	if qH >= qD {
		t.Errorf("HULL queue %v not below DCTCP's %v", qH, qD)
	}
}
