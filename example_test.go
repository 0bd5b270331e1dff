package expresspass_test

import (
	"fmt"

	"expresspass"
)

// ExampleDial transfers 1 MB between two hosts through one switch and
// shows the zero-loss guarantee.
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
	expresspass.Dial(flow, expresspass.Config{BaseRTT: 20 * expresspass.Microsecond})
	eng.Run()

	fmt.Println("delivered:", flow.BytesDelivered)
	fmt.Println("data drops:", net.Stats().DataDrops)
	// Output:
	// delivered: 1MB
	// data drops: 0
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
