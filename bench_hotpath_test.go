package expresspass_test

// BenchmarkHotPath pins the per-packet allocation behaviour of the
// simulator's steady-state path: one long-running ExpressPass flow
// crossing a 5-hop linear topology (host → 4 switches → host), with the
// credit loop saturated. Every iteration advances the simulation a
// fixed slice of virtual time, so allocs/op measures exactly what the
// recurring packet machinery allocates — event scheduling, queue
// operations, credit pacing, and data emission — with all setup cost
// excluded by ResetTimer.
//
// The typed event API (sim.Engine.At2) plus the packet pool make this
// loop allocation-free: the benchmark's budget, enforced by
// TestHotPathBudget on every `go test`, is 0 allocs/op.
//
// Speed is reported per delivered data packet (pkts/sec, the figure
// `make bench-gate` holds to a floor through TestHotPathBudget's
// -pktrate-floor) because that is the work: the
// events spent on a packet are a property of the simulator, not of the
// load. The chain is saturated but never queues, so almost no
// transmitter-done event is ever queued here (events/pkt says how many
// events a packet costs end to end, credits included); sim-events/sec is
// printed for reference and falls when a change removes events.

import (
	"flag"
	"testing"

	"expresspass"
)

// pktrateFloor is a speed floor for hosts whose speed is known: `make
// bench-gate` passes it (go test . -args -pktrate-floor N). Unset, only
// the allocation budget — which no host changes — is held.
var pktrateFloor = flag.Float64("pktrate-floor", 0,
	"TestHotPathBudget fails if BenchmarkHotPath delivers fewer data packets per wall second than this")

// TestHotPathBudget runs BenchmarkHotPath and holds it to its budgets:
// 0 allocs/op always, race detector on or off, and -pktrate-floor when
// given.
func TestHotPathBudget(t *testing.T) {
	r := testing.Benchmark(BenchmarkHotPath)
	if r.N == 0 {
		t.Fatal("BenchmarkHotPath failed")
	}
	t.Logf("BenchmarkHotPath %s %s", r, r.MemString())
	if got := r.AllocsPerOp(); got != 0 {
		t.Errorf("%d allocs/op on the steady-state packet path, budget 0", got)
	}
	if got := r.Extra["pkts/sec"]; got < *pktrateFloor {
		t.Errorf("%.0f pkts/sec below floor %.0f", got, *pktrateFloor)
	}
}

// hotPathSlice is the simulated time one benchmark iteration covers.
// At 10 Gbps a slice carries ~80 data packets plus their credits, each
// packet crossing 5 links — thousands of engine events per op.
const hotPathSlice = 100 * expresspass.Microsecond

func BenchmarkHotPath(b *testing.B) {
	eng := expresspass.NewEngine(1)
	net := expresspass.NewNetwork(eng)
	link := expresspass.Link(10*expresspass.Gbps, 2*expresspass.Microsecond)

	src := net.NewHost("src", expresspass.HardwareNIC())
	dst := net.NewHost("dst", expresspass.HardwareNIC())
	prev := expresspass.Node(src)
	for _, name := range []string{"sw1", "sw2", "sw3", "sw4"} {
		sw := net.NewSwitch(name)
		net.Connect(prev, sw, link)
		prev = sw
	}
	lastHop, _ := net.Connect(prev, dst, link)
	net.BuildRoutes()

	// Size 0 = unbounded flow: the credit loop never stops, so every
	// iteration observes pure steady state.
	f := expresspass.NewFlow(net, src, dst, 0, 0)
	expresspass.Dial(f, expresspass.Config{BaseRTT: 40 * expresspass.Microsecond})

	// Warm up past slow start so rate/feedback state stops changing and
	// the engine free list and packet pool reach their working sets.
	eng.RunFor(20 * expresspass.Millisecond)

	b.ReportAllocs()
	b.ResetTimer()
	start := eng.Executed()
	// Frames onto the last link: the flow's data packets (credits travel
	// the other way).
	startPkts := lastHop.Stats().TxPackets
	for i := 0; i < b.N; i++ {
		eng.RunFor(hotPathSlice)
	}
	b.StopTimer()
	events := eng.Executed() - start
	pkts := lastHop.Stats().TxPackets - startPkts
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(pkts)/sec, "pkts/sec")
		b.ReportMetric(float64(events)/sec, "sim-events/sec")
	}
	if pkts > 0 {
		b.ReportMetric(float64(events)/float64(pkts), "events/pkt")
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	if f.BytesDelivered == 0 {
		b.Fatal("hot-path flow delivered no data")
	}
}
