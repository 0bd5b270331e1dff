// Timeseries: regenerate the raw data behind a Fig 13-style plot — two
// ExpressPass flows sharing a bottleneck, sampled every 100 µs — and
// print it as CSV (time, per-flow Gbps, queue KB) ready for any plotting
// tool:
//
//	go run ./examples/timeseries > fig13.csv
package main

import (
	"fmt"

	"expresspass"
)

func main() {
	eng := expresspass.NewEngine(21)
	net := expresspass.NewNetwork(eng)
	left := net.NewSwitch("left")
	right := net.NewSwitch("right")
	link := expresspass.Link(10*expresspass.Gbps, 4*expresspass.Microsecond)
	bottleneck, _ := net.Connect(left, right, link)

	var flows [2]*expresspass.Flow
	for i := range flows {
		s := net.NewHost(fmt.Sprintf("s%d", i), expresspass.HardwareNIC())
		net.Connect(s, left, link)
		r := net.NewHost(fmt.Sprintf("r%d", i), expresspass.HardwareNIC())
		net.Connect(r, right, link)
	}
	net.BuildRoutes()
	hosts := net.Hosts()
	// Flow 1 joins 2 ms in, halving flow 0's share within a few RTTs.
	flows[0] = expresspass.NewFlow(net, hosts[0], hosts[1], 0, 0)
	flows[1] = expresspass.NewFlow(net, hosts[2], hosts[3], 0, 2*expresspass.Millisecond)
	for _, f := range flows {
		expresspass.Dial(f, expresspass.Config{BaseRTT: 30 * expresspass.Microsecond})
	}

	// Sample by running the engine one interval at a time, as the
	// experiments' own samplers do.
	interval := 100 * expresspass.Microsecond
	fmt.Println("time_us,flow0_gbps,flow1_gbps,queue_kb")
	for eng.Now() < 6*expresspass.Millisecond {
		eng.RunFor(interval)
		fmt.Printf("%.3f", eng.Now().Micros())
		for _, f := range flows {
			fmt.Printf(",%g", float64(f.TakeDeliveredDelta())*8/interval.Seconds()/1e9)
		}
		fmt.Printf(",%g\n", float64(bottleneck.Stats().DataQueueBytes)/1e3)
	}
}
