// Fairness: four long-running flows join a shared 10G bottleneck one
// after another and then leave in reverse order (the Fig 13 scenario).
// Watch the credit feedback loop re-divide the link within a few RTTs
// at every arrival and departure, with the data queue staying tiny.
//
//	go run ./examples/fairness
package main

import (
	"fmt"

	"expresspass"
)

func main() {
	eng := expresspass.NewEngine(3)
	net := expresspass.NewNetwork(eng)
	left := net.NewSwitch("left")
	right := net.NewSwitch("right")
	link := expresspass.Link(10*expresspass.Gbps, 4*expresspass.Microsecond)
	bottleneck, _ := net.Connect(left, right, link)

	const n = 4
	var flows []*expresspass.Flow
	var sessions []*expresspass.Session
	phase := 20 * expresspass.Millisecond
	for i := 0; i < n; i++ {
		s := net.NewHost(fmt.Sprintf("s%d", i), expresspass.HardwareNIC())
		net.Connect(s, left, link)
		r := net.NewHost(fmt.Sprintf("r%d", i), expresspass.HardwareNIC())
		net.Connect(r, right, link)
		flows = append(flows, nil)
		sessions = append(sessions, nil)
	}
	net.BuildRoutes()

	for i := 0; i < n; i++ {
		f := expresspass.NewFlow(net, net.Hosts()[2*i], net.Hosts()[2*i+1],
			0, expresspass.Time(i)*phase)
		flows[i] = f
		sessions[i] = expresspass.Dial(f, expresspass.Config{
			BaseRTT: 30 * expresspass.Microsecond,
		})
		// Mirror-image departures: flow i stops at (2n-i)·phase.
		sess := sessions[i]
		eng.At(expresspass.Time(2*n-i)*phase, sess.Stop)
	}

	fmt.Println("time     per-flow goodput (Gbps)            queue")
	for step := 0; step < 2*n+1; step++ {
		eng.RunFor(phase)
		line := fmt.Sprintf("%-8v", eng.Now())
		for _, f := range flows {
			gbps := float64(f.TakeDeliveredDelta()) * 8 / phase.Seconds() / 1e9
			line += fmt.Sprintf(" %5.2f", gbps)
		}
		line += fmt.Sprintf("   max %5.1f KB",
			float64(bottleneck.Stats().DataQueueMaxBytes)/1e3)
		bottleneck.ResetStats()
		fmt.Println(line)
	}
	fmt.Printf("total data drops: %d\n", net.Stats().DataDrops)
}
