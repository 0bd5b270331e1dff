package netem_test

import (
	"testing"

	"expresspass/internal/core"
	"expresspass/internal/dctcp"
	"expresspass/internal/netem"
	"expresspass/internal/sim"
	"expresspass/internal/topology"
	"expresspass/internal/transport"
	"expresspass/internal/unit"
)

// The topology-level footprint guards (see footprint_test.go): slot
// counts on fig15's dumbbell, through export_test.go.

func dumbbell(n int, credits bool) (*sim.Engine, *topology.Dumbbell) {
	eng := sim.New(1)
	cfg := topology.Config{LinkRate: 10 * unit.Gbps, LinkDelay: 4 * sim.Microsecond}
	if !credits {
		cfg.ECNThreshold = dctcp.RecommendedK(10 * unit.Gbps)
	}
	return eng, topology.NewDumbbell(eng, n, cfg)
}

func dial(d *topology.Dumbbell, i int, credits bool) {
	f := transport.NewFlow(d.Net, d.Senders[i], d.Receivers[i], 0, sim.Duration(i)*73*sim.Microsecond)
	if credits {
		core.Dial(f, core.Config{})
		return
	}
	transport.NewConn(f, dctcp.New(), transport.ConnConfig{ECN: true, MinCwnd: 2})
}

// TestRingsFollowPeakOccupancy: after 64 long flows have run across the
// dumbbell, every ring of every port is as large as the peak occupancy
// its queue reports (rounded up to a power of two, one doubling of
// slack) and no larger — 130 ports, of which all but the bottleneck's
// never queue more than a few packets however many they forward.
func TestRingsFollowPeakOccupancy(t *testing.T) {
	t.Parallel()
	for _, arm := range []struct {
		name    string
		credits bool
	}{{"dctcp", false}, {"expresspass", true}} {
		t.Run(arm.name, func(t *testing.T) {
			eng, d := dumbbell(64, arm.credits)
			for i := 0; i < 64; i++ {
				dial(d, i, arm.credits)
			}
			eng.RunUntil(10 * sim.Millisecond)
			if d.Bottleneck.Stats().TxPackets < 5000 {
				t.Fatalf("bottleneck forwarded %d packets: nothing ran", d.Bottleneck.Stats().TxPackets)
			}
			small := 0
			for _, p := range d.Net.AllPorts() {
				for _, u := range netem.RingUses(p) {
					pow := 1
					for pow < u.MaxPkts {
						pow *= 2
					}
					bound := max(4, 2*pow)
					if u.MaxPkts == 0 {
						bound = 0 // a queue nothing ever waited in allocates nothing
					}
					if u.Slots > bound {
						t.Errorf("%s %s ring: %d slots for a peak of %d packets (bound %d)",
							p.Name(), u.Class, u.Slots, u.MaxPkts, bound)
					}
					if u.Class == "data" && u.Slots <= 8 && p.Stats().TxPackets > 64 {
						small++
					}
				}
			}
			// The point of the ring: ports that forwarded more than the
			// old compaction threshold and still hold eight slots or fewer.
			if small < 64 {
				t.Errorf("only %d busy ports ended with a data ring of ≤ 8 slots", small)
			}
		})
	}
}

// TestDemuxSlotsFollowEndpoints: fig15's 256 pairs put their 512
// endpoints in one network flow table of at most 257 entries (IDs 1–256).
// A per-host window over each host's own IDs held 512 slots between the
// hosts; indexed by absolute flow ID per host they held 66,304 (host i
// kept i+2), 16.8 MB of them at the paper's 1024 pairs.
func TestDemuxSlotsFollowEndpoints(t *testing.T) {
	t.Parallel()
	_, d := dumbbell(256, false)
	for i := 0; i < 256; i++ {
		dial(d, i, false)
	}
	if slots, eps := netem.DemuxSlots(d.Net), d.Net.ActiveEndpoints(); eps != 512 || slots > 257 {
		t.Errorf("%d flow-table entries for %d endpoints, want at most 257 for 512", slots, eps)
	}
}
