package netem

import (
	"reflect"
	"slices"
	"testing"
)

// TestNetemSurface pins the exported methods and fields of the three
// types every experiment reads a run through. A port is read through
// Stats and a network through Stats, the field-wise sum of its ports';
// nothing else hands out a counter. A new accessor, or an old one
// coming back, has to change these lists, so it arrives as a reviewed
// diff.
func TestNetemSurface(t *testing.T) {
	for _, c := range []struct {
		v    any
		want []string
	}{
		{(*Port)(nil), []string{
			"Config", "Enqueue", "Fail", "Name", "Number", "Peer", "Rate",
			"ResetStats", "Restore", "SetCorruption", "SetDelayJitter",
			"SetDuplication", "SetLossModel", "SetRateJitter", "SetReorder",
			"Stats", "String",
		}},
		{(*Network)(nil), []string{
			"ActiveEndpoints", "AllPorts", "BuildRoutes", "ClaimFlowMetrics",
			"Connect", "FreeFlowID", "Hosts", "Metrics", "NewHost", "NewSwitch",
			"NextFlowID", "Pool", "ReleaseFlowMetrics", "ResetStats",
			"SetLinkDown", "SetTracer", "Stats", "Switches", "TracePorts",
			"Tracer",
			"field Eng",
		}},
		{(*Host)(nil), []string{
			"ClaimFlowMetrics", "CreditStallUntil", "Deliver", "Dom", "Engine",
			"ID", "LineRate", "Metrics", "NIC", "Name", "Network", "Pool",
			"Ports", "Rand", "Register", "SampleProcDelay", "Send",
			"StallCreditsUntil", "String", "Tracer", "Unregister",
			"field Delay", "field Unclaimed",
		}},
	} {
		typ := reflect.TypeOf(c.v)
		var got []string
		for i := 0; i < typ.NumMethod(); i++ {
			got = append(got, typ.Method(i).Name)
		}
		for _, f := range reflect.VisibleFields(typ.Elem()) {
			if f.IsExported() {
				got = append(got, "field "+f.Name)
			}
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%v surface:\n got %q\nwant %q", typ, got, c.want)
		}
	}
}
