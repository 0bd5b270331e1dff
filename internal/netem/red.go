package netem

import (
	"expresspass/internal/packet"
	"expresspass/internal/sim"
	"expresspass/internal/unit"
)

// RED-style probabilistic ECN marking (PortConfig.RED; the marking scheme
// DCQCN assumes at switches): below redKMin no marks, above redKMax every
// packet is marked, linear probability redPMax·(q−redKMin)/(redKMax−redKMin)
// in between. Probabilistic marking is what keeps DCQCN's control loop
// stable; step marking makes it oscillate.
const (
	redKMin         = 5 * unit.MaxFrame
	redKMax         = 200 * unit.MaxFrame
	redPMax float64 = 0.01
)

func redMark(q unit.Bytes, pkt *packet.Packet, rng *sim.Rand) {
	switch {
	case q <= redKMin:
	case q >= redKMax:
		pkt.CE = true
	default:
		p := redPMax * float64(q-redKMin) / float64(redKMax-redKMin)
		if rng.Float64() < p {
			pkt.CE = true
		}
	}
}
