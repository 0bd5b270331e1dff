package unit

import (
	"testing"
	"testing/quick"

	"expresspass/internal/sim"
)

func TestTxTimeKnownValues(t *testing.T) {
	cases := []struct {
		n    Bytes
		r    Rate
		want sim.Duration
	}{
		{1538, 10 * Gbps, sim.Duration(1538 * 8 * 100)}, // 1230.4 ns
		{84, 10 * Gbps, sim.Duration(84 * 8 * 100)},     // 67.2 ns
		{84, 100 * Gbps, sim.Duration(84 * 8 * 10)},     // 6.72 ns
		{1, BitPerSecond * 8, 1 * sim.Second},           // 1 B at 8 bps
		{1250, 10 * Mbps, 1 * sim.Millisecond},          // 10 kb at 10 Mbps
	}
	for _, c := range cases {
		if got := TxTime(c.n, c.r); got != c.want {
			t.Errorf("TxTime(%v, %v) = %v, want %v", c.n, c.r, got, c.want)
		}
	}
}

func TestTxTimeLargeTransferNoOverflow(t *testing.T) {
	// 1 GB at 1 Gbps = 8 s; the naive n*8*1e12 would overflow int64.
	got := TxTime(1*GB, 1*Gbps)
	if got != 8*sim.Second {
		t.Errorf("TxTime(1GB, 1Gbps) = %v, want 8s", got)
	}
	got = TxTime(100*GB, 10*Gbps)
	if got != 80*sim.Second {
		t.Errorf("TxTime(100GB, 10Gbps) = %v, want 80s", got)
	}
}

func TestTxTimePanicsOnZeroRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for zero rate")
		}
	}()
	TxTime(100, 0)
}

// Property: the rate n bytes over TxTime(n, r) recovers r within
// quantization error.
func TestRateRoundTripProperty(t *testing.T) {
	f := func(kb uint16, gb uint8) bool {
		n := Bytes(kb)*KB + 84
		r := Rate(gb%100+1) * Gbps
		d := TxTime(n, r)
		got := Rate(float64(n) * 8 / d.Seconds())
		diff := float64(got-r) / float64(r)
		return diff < 0.001 && diff > -0.001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCreditRatio(t *testing.T) {
	// 84 / (84+1538) ≈ 5.18%.
	if CreditRatio < 0.0517 || CreditRatio > 0.0519 {
		t.Errorf("CreditRatio = %v", CreditRatio)
	}
	// Paper: "the maximum ExpressPass data throughput is 94.82% of link
	// capacity".
	if data := 1 - CreditRatio; data < 0.948 || data > 0.949 {
		t.Errorf("data share = %v", data)
	}
}

func TestRateString(t *testing.T) {
	cases := map[Rate]string{
		10 * Gbps:  "10Gbps",
		518 * Mbps: "518Mbps",
		12 * Kbps:  "12Kbps",
		42:         "42bps",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(in), got, want)
		}
	}
}

func TestBytesString(t *testing.T) {
	cases := map[Bytes]string{
		2 * GB:  "2GB",
		10 * MB: "10MB",
		384500:  "384.5KB",
		84:      "84B",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(in), got, want)
		}
	}
}

func TestScale(t *testing.T) {
	if (10 * Gbps).Scale(0.5) != 5*Gbps {
		t.Error("Scale(0.5)")
	}
	if got := (10 * Gbps).Scale(CreditRatio); got < 517*Mbps || got > 519*Mbps {
		t.Errorf("credit share of 10G = %v", got)
	}
}
