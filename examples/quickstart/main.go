// Quickstart: two hosts behind one switch, one 10 MB ExpressPass flow.
//
// Demonstrates the minimal public-API workflow: build a topology, dial a
// flow, run the simulator, read the outcome.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"expresspass"
)

func main() {
	eng := expresspass.NewEngine(1)
	net := expresspass.NewNetwork(eng)

	tor := net.NewSwitch("tor")
	link := expresspass.Link(10*expresspass.Gbps, 4*expresspass.Microsecond)
	sender := net.NewHost("sender", expresspass.HardwareNIC())
	receiver := net.NewHost("receiver", expresspass.HardwareNIC())
	net.Connect(sender, tor, link)
	net.Connect(receiver, tor, link)
	net.BuildRoutes()

	flow := expresspass.NewFlow(net, sender, receiver, 10*expresspass.MB, 0)
	sess := expresspass.Dial(flow, expresspass.Config{
		BaseRTT: 20 * expresspass.Microsecond,
	})

	eng.Run()

	fct := flow.FCT()
	fmt.Printf("transferred %v in %v (%.2f Gbps goodput)\n",
		flow.BytesDelivered, fct, float64(flow.BytesDelivered)*8/fct.Seconds()/1e9)
	fmt.Printf("credits: sent=%d received=%d wasted=%d; data packets=%d\n",
		sess.CreditsSent(), sess.CreditsReceived(), sess.CreditsWasted(), sess.DataSent())
	fmt.Printf("data drops anywhere: %d (ExpressPass guarantees zero)\n",
		net.Stats().DataDrops)
}
