// Incast: a partition/aggregate pattern where up to 256 workers answer
// one aggregator at once — the workload that melts drop-tail datacenter
// switches (§2, Fig 1). ExpressPass keeps the aggregator's downlink
// queue bounded at a handful of packets and drops nothing, regardless
// of fan-out.
//
//	go run ./examples/incast
package main

import (
	"fmt"

	"expresspass"
)

func main() {
	fmt.Println("fanout  maxQueue(pkts)  creditDrops  dataDrops  allDone")
	for _, fanout := range []int{16, 64, 256} {
		eng := expresspass.NewEngine(7)
		net := expresspass.NewNetwork(eng)
		tor := net.NewSwitch("tor")
		link := expresspass.Link(10*expresspass.Gbps, 2*expresspass.Microsecond)

		aggregator := net.NewHost("aggregator", expresspass.HardwareNIC())
		net.Connect(aggregator, tor, link)
		workers := make([]*expresspass.Host, 16)
		for i := range workers {
			workers[i] = net.NewHost(fmt.Sprintf("worker%d", i), expresspass.HardwareNIC())
			net.Connect(workers[i], tor, link)
		}
		net.BuildRoutes()

		// Every response is 64 KB; responses start simultaneously
		// (workers share hosts at high fan-out, as in the paper).
		flows := make([]*expresspass.Flow, fanout)
		for i := range flows {
			flows[i] = expresspass.NewFlow(net, workers[i%len(workers)],
				aggregator, 64*expresspass.KB, 0)
			expresspass.Dial(flows[i], expresspass.Config{
				BaseRTT: 20 * expresspass.Microsecond,
				Alpha:   1.0 / 16, WInit: 1.0 / 16,
			})
		}
		eng.RunUntil(2 * expresspass.Second)

		done := 0
		for _, f := range flows {
			if f.Finished {
				done++
			}
		}
		// The aggregator's ToR downlink is the incast bottleneck.
		down := aggregator.NIC().Peer()
		st := net.Stats()
		fmt.Printf("%6d  %14.1f  %11d  %9d  %d/%d\n",
			fanout,
			float64(down.Stats().DataQueueMaxBytes)/1538,
			st.CreditDrops, st.DataDrops,
			done, fanout)
	}
}
