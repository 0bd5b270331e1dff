// Command xpcalc computes the network-calculus zero-loss buffer bound of
// §3.1 (Eq 1) for a 3-level multi-rooted tree: the ∆d delay spread per
// switch-port class and the corresponding data buffer requirement.
//
// Usage:
//
//	xpcalc -host 10Gbps -fabric 40Gbps -cq 8 -dhost 5.1us
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"expresspass/internal/netcalc"
	"expresspass/internal/sim"
	"expresspass/internal/unit"
)

func parseRate(s string) (unit.Rate, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	mult := unit.Rate(1)
	switch {
	case strings.HasSuffix(s, "gbps"):
		mult, s = unit.Gbps, strings.TrimSuffix(s, "gbps")
	case strings.HasSuffix(s, "mbps"):
		mult, s = unit.Mbps, strings.TrimSuffix(s, "mbps")
	case strings.HasSuffix(s, "kbps"):
		mult, s = unit.Kbps, strings.TrimSuffix(s, "kbps")
	}
	var v float64
	if _, err := fmt.Sscanf(s, "%g", &v); err != nil {
		return 0, fmt.Errorf("bad rate %q", s)
	}
	return unit.Rate(v * float64(mult)), nil
}

func main() {
	host := flag.String("host", "10Gbps", "host-ToR link rate")
	fabric := flag.String("fabric", "40Gbps", "fabric link rate")
	cq := flag.Int("cq", 8, "credit queue capacity (packets)")
	dhostUS := flag.Float64("dhost", 5.1, "host processing delay spread (µs)")
	edgeUS := flag.Float64("edge", 1, "edge propagation delay (µs)")
	coreUS := flag.Float64("core", 5, "core propagation delay (µs)")
	ports := flag.Int("ports", 16, "ToR host/uplink ports (each)")
	flag.Parse()

	hr, err := parseRate(*host)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xpcalc:", err)
		os.Exit(2)
	}
	fr, err := parseRate(*fabric)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xpcalc:", err)
		os.Exit(2)
	}

	spec := netcalc.Spec{
		HostRate:     hr,
		FabricRate:   fr,
		EdgeProp:     sim.Micros(*edgeUS),
		CoreProp:     sim.Micros(*coreUS),
		CreditQueue:  *cq,
		HostDelayMin: sim.Micros(0.2),
		HostDelayMax: sim.Micros(0.2 + *dhostUS),
	}
	b := spec.Compute()
	fmt.Printf("per-port zero-loss buffer bound (host %v, fabric %v, cq=%d, dHost=%.3gus):\n",
		hr, fr, *cq, *dhostUS)
	fmt.Printf("  ToR down: %-10v (delay spread %v)\n", b.ToRDown, b.ToRDownSpread)
	fmt.Printf("  ToR up:   %-10v (delay spread %v)\n", b.ToRUp, b.ToRUpSpread)
	fmt.Printf("  Agg up:   %-10v (delay spread %v)\n", b.AggUp, b.AggUpSpread)
	fmt.Printf("  Core:     %-10v (delay spread %v)\n", b.Core, b.CoreSpread)
	data, credit := spec.ToRSwitchTotal(*ports, *ports)
	fmt.Printf("ToR switch total (%d+%d ports): data %v + credit %v = %v\n",
		*ports, *ports, data, credit, data+credit)
}
