package transport

import (
	"reflect"
	"slices"
	"testing"
)

// TestConnSurface pins the exported methods and fields of *Conn. How a
// Conn sends (Paced, ECN, MinCwnd, the initial PaceRate) is its CC's to
// declare in Init, and the one run-level value, the RTO floor, is
// NewConn's argument: a new field a caller would set has to change this
// list, so it arrives as a reviewed diff.
func TestConnSurface(t *testing.T) {
	want := []string{
		"BytesInFlight", "ClampCwnd", "CwndBytes", "Engine", "NextSeqNum",
		"Quiesced", "Retire", "Stop", "Stopped",
		"field Flow", "field CC", "field Paced", "field ECN", "field MinCwnd",
		"field Cwnd", "field PaceRate", "field SRTT", "field RTTVar",
		"field Retransmits", "field Timeouts", "field SentSegments",
		"field MarkedAcks", "field AckedPkts",
	}
	typ := reflect.TypeFor[*Conn]()
	var got []string
	for i := 0; i < typ.NumMethod(); i++ {
		got = append(got, typ.Method(i).Name)
	}
	for _, f := range reflect.VisibleFields(typ.Elem()) {
		if f.IsExported() {
			got = append(got, "field "+f.Name)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("%v surface:\n got %q\nwant %q", typ, got, want)
	}
}
