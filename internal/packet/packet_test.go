package packet

import (
	"strings"
	"testing"
	"unsafe"
)

func TestPoolReturnsZeroedPackets(t *testing.T) {
	var pl Pool
	p := pl.Get()
	p.Flow = 42
	p.Seq = 7
	p.CE = true
	pl.Put(p)
	q := pl.Get()
	if q != p {
		t.Error("the free list is not LIFO: Get after Put allocated")
	}
	if q.Flow != 0 || q.Seq != 0 || q.CE || q.free {
		t.Errorf("recycled packet not zeroed: %+v", q)
	}
	pl.Put(q)
	if pl.Live() != 0 {
		t.Errorf("Live = %d after every Get was Put", pl.Live())
	}
}

// TestPacketStays120Bytes: the double-free flag sits in the padding
// after the four header flags, so a packet is still 120 bytes — the
// 128-byte allocator class.
func TestPacketStays120Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got != 120 {
		t.Fatalf("packet.Packet is %d bytes, want 120", got)
	}
}

// TestPoolCountsAreExact: Live is Get−Put of this pool alone; a second
// pool's traffic does not reach it.
func TestPoolCountsAreExact(t *testing.T) {
	var a, b Pool
	held := []*Packet{a.Get(), a.Get(), a.Get()}
	x := b.Get()
	if a.Live() != 3 || b.Live() != 1 {
		t.Fatalf("Live = %d and %d, want 3 and 1", a.Live(), b.Live())
	}
	for _, p := range held {
		a.Put(p)
	}
	b.Put(x)
	if a.Live() != 0 || b.Live() != 0 {
		t.Fatalf("Live = %d and %d after every Put, want 0 and 0", a.Live(), b.Live())
	}
}

func TestIsCredit(t *testing.T) {
	p := &Packet{Kind: Credit}
	if !p.IsCredit() {
		t.Error("credit not credit")
	}
	p.Kind = Data
	if p.IsCredit() {
		t.Error("data is credit")
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{Data: "data", Credit: "credit", Ack: "ack", Ctrl: "ctrl"} {
		if k.String() != want {
			t.Errorf("%d → %q", k, k.String())
		}
	}
}

func TestCtrlStrings(t *testing.T) {
	if CtrlCreditRequest.String() != "CREDIT_REQUEST" || CtrlCreditStop.String() != "CREDIT_STOP" {
		t.Error("ctrl strings")
	}
}

func TestPacketString(t *testing.T) {
	p := &Packet{Kind: Credit, Flow: 3, Seq: 9, Wire: 84}
	if s := p.String(); !strings.Contains(s, "credit") || !strings.Contains(s, "seq=9") {
		t.Errorf("credit string: %q", s)
	}
	p.Kind = Ctrl
	p.Ctrl = CtrlCreditStop
	if s := p.String(); !strings.Contains(s, "CREDIT_STOP") {
		t.Errorf("ctrl string: %q", s)
	}
}
