package expresspass_test

import (
	"fmt"

	"expresspass"
)

// ExampleDial transfers 1 MB between two hosts through one switch and
// shows the zero-loss guarantee and the session's credit accounting.
func ExampleDial() {
	eng := expresspass.NewEngine(1)
	net := expresspass.NewNetwork(eng)
	tor := net.NewSwitch("tor")
	link := expresspass.Link(10*expresspass.Gbps, 4*expresspass.Microsecond)
	a := net.NewHost("a", expresspass.HardwareNIC())
	b := net.NewHost("b", expresspass.HardwareNIC())
	net.Connect(a, tor, link)
	net.Connect(b, tor, link)
	net.BuildRoutes()

	flow := expresspass.NewFlow(net, a, b, 1*expresspass.MB, 0)
	sess := expresspass.Dial(flow, expresspass.Config{BaseRTT: 20 * expresspass.Microsecond})
	eng.Run()

	fmt.Println("delivered:", flow.BytesDelivered)
	fmt.Println("data drops:", net.Stats().DataDrops)
	fmt.Printf("credits: sent=%d received=%d wasted=%d; data packets=%d\n",
		sess.CreditsSent(), sess.CreditsReceived(), sess.CreditsWasted(), sess.DataSent())
	// Output:
	// delivered: 1MB
	// data drops: 0
	// credits: sent=730 received=705 wasted=20; data packets=685
}

// ExampleCreditClassConfig is quality of service the ExpressPass way
// (§7): the switch schedules credit queues, not data queues, so whose
// credits pass decides whose data arrives. An interactive and a bulk
// flow share one 10G link under three credit policies: one class (fair
// share), strict priority, and a 3:1 weighted share.
func ExampleCreditClassConfig() {
	run := func(policy string, classes []expresspass.CreditClassConfig) {
		eng := expresspass.NewEngine(11)
		net := expresspass.NewNetwork(eng)
		left, right := net.NewSwitch("left"), net.NewSwitch("right")
		link := expresspass.Link(10*expresspass.Gbps, 4*expresspass.Microsecond)
		link.CreditClasses = classes
		net.Connect(left, right, link)
		host := func(name string, sw *expresspass.Switch) *expresspass.Host {
			h := net.NewHost(name, expresspass.HardwareNIC())
			net.Connect(h, sw, link)
			return h
		}
		iSrc, iDst := host("i-src", left), host("i-dst", right)
		bSrc, bDst := host("b-src", left), host("b-dst", right)
		net.BuildRoutes()

		// Long-running flows; Config.Class picks the credit class.
		interactive := expresspass.NewFlow(net, iSrc, iDst, 0, 0)
		expresspass.Dial(interactive, expresspass.Config{BaseRTT: 50 * expresspass.Microsecond, Class: 0})
		bulk := expresspass.NewFlow(net, bSrc, bDst, 0, 0)
		expresspass.Dial(bulk, expresspass.Config{BaseRTT: 50 * expresspass.Microsecond, Class: 1})

		// Warm up for 20 ms, then measure 30 ms.
		eng.RunUntil(20 * expresspass.Millisecond)
		interactive.TakeDeliveredDelta()
		bulk.TakeDeliveredDelta()
		meas := 30 * expresspass.Millisecond
		eng.RunFor(meas)
		gbps := func(f *expresspass.Flow) float64 {
			return float64(f.TakeDeliveredDelta()) * 8 / meas.Seconds() / 1e9
		}
		fmt.Printf("%-22s interactive %5.2f Gbps | bulk %5.2f Gbps\n", policy, gbps(interactive), gbps(bulk))
	}
	run("fair (single class)", nil)
	run("strict priority", []expresspass.CreditClassConfig{{Priority: 0}, {Priority: 1}})
	run("weighted 3:1", []expresspass.CreditClassConfig{{Priority: 0, Weight: 3}, {Priority: 0, Weight: 1}})
	// Output:
	// fair (single class)    interactive  4.46 Gbps | bulk  4.53 Gbps
	// strict priority        interactive  8.86 Gbps | bulk  0.06 Gbps
	// weighted 3:1           interactive  6.72 Gbps | bulk  2.24 Gbps
}

// ExampleFeedback runs Algorithm 1 standalone: a rate controller
// reacting to credit-loss samples.
func ExampleFeedback() {
	fb := &expresspass.Feedback{
		MaxRate:    518 * expresspass.Mbps,
		MinRate:    2 * expresspass.Mbps,
		TargetLoss: 0.1,
		WMin:       0.01,
		WMax:       0.5,
		Rate:       100 * expresspass.Mbps,
		W:          0.5,
	}
	r0 := fb.Rate
	fb.Update(0, true) // no credit loss: increase
	increased := fb.Rate > r0
	r1 := fb.Rate
	fb.Update(0.5, true) // heavy loss: decrease
	fmt.Println("increased on clean period:", increased)
	fmt.Println("decreased on loss:", fb.Rate < r1 && fb.LastDecreased())
	// Output:
	// increased on clean period: true
	// decreased on loss: true
}

// ExampleRunExperiment regenerates a paper artifact programmatically.
func ExampleRunExperiment() {
	var n int
	for _, e := range expresspass.Experiments() {
		_ = e
		n++
	}
	fmt.Println("experiments registered:", n >= 19)
	// Output:
	// experiments registered: true
}
