package bus

import (
	"math"
	"testing"
)

func TestLinkValidate(t *testing.T) {
	if err := DefaultLink().Validate(); err != nil {
		t.Fatalf("default link invalid: %v", err)
	}
	bad := []LinkSpec{
		{BandwidthMBps: 0, OverheadMs: 0.1},
		{BandwidthMBps: -5, OverheadMs: 0.1},
		{BandwidthMBps: 100, OverheadMs: -0.1},
	}
	for _, l := range bad {
		if err := l.Validate(); err == nil {
			t.Fatalf("spec %+v validated", l)
		}
	}
	// Zero overhead is a valid spec (single-LP use); it just cannot be a
	// partitioned-engine channel, which the engine wiring enforces.
	if err := (LinkSpec{BandwidthMBps: 100}).Validate(); err != nil {
		t.Fatalf("zero-overhead link invalid: %v", err)
	}
}

func TestLinkTransferMs(t *testing.T) {
	l := LinkSpec{BandwidthMBps: 100, OverheadMs: 0.2}
	// 100 MB/s = 1e8 bytes/s = 1e5 bytes/ms, so 1e5 bytes take 1 ms.
	if got := l.TransferMs(100_000); math.Abs(got-1) > 1e-12 {
		t.Fatalf("TransferMs(1e5) = %g, want 1", got)
	}
	if l.TransferMs(0) != 0 || l.TransferMs(-512) != 0 {
		t.Fatal("empty payload must cost nothing")
	}
}

func TestMinLatency(t *testing.T) {
	l := LinkSpec{BandwidthMBps: 300, OverheadMs: 0.3}
	if l.MinLatencyMs() != 0.3 {
		t.Fatalf("link MinLatencyMs %g", l.MinLatencyMs())
	}
}
