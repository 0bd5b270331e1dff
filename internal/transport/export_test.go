package transport

import "expresspass/internal/netem"

// ReceiverEndpoint is the endpoint c registered at its receiver, so a
// test in package transport_test can stand between the network and it.
func ReceiverEndpoint(c *Conn) netem.Endpoint { return connReceiver{c} }
