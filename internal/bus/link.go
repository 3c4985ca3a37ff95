// Package bus models the storage interconnect between an array
// controller and its members: point-to-point links with finite
// bandwidth and a fixed per-message overhead. The paper assumes the
// intra-drive data channel is never the bottleneck (§4); the links
// carry the partitioned RAID model's controller↔member traffic and
// give its engine a lookahead.
package bus

import "fmt"

// LinkSpec describes one point-to-point controller↔member link of a
// partitioned array: a bandwidth plus a fixed per-message arbitration
// overhead. It is also the partitioned engine's source of conservative
// lookahead — no message can cross the link in less than MinLatencyMs,
// so a logical process can safely run that far ahead of its neighbors
// (see simkit/par).
type LinkSpec struct {
	// BandwidthMBps is the link's payload bandwidth in MB/s.
	BandwidthMBps float64
	// OverheadMs is the fixed arbitration/propagation cost every
	// message pays, payload or not.
	OverheadMs float64
}

// DefaultLink returns the link the partitioned RAID scenario uses: a
// 300 MB/s point-to-point channel (the SATA-generation interconnect of
// the paper's era) with 0.3 ms of per-message overhead.
func DefaultLink() LinkSpec {
	return LinkSpec{BandwidthMBps: 300, OverheadMs: 0.3}
}

// Validate reports the first problem with the spec. A link used as a
// partitioned-engine channel must additionally have positive
// MinLatencyMs — that check lives with the engine wiring, because a
// zero-overhead link is a fine model when everything shares one LP.
func (l LinkSpec) Validate() error {
	if l.BandwidthMBps <= 0 {
		return fmt.Errorf("bus: link bandwidth %v must be positive", l.BandwidthMBps)
	}
	if l.OverheadMs < 0 {
		return fmt.Errorf("bus: link overhead %v must be nonnegative", l.OverheadMs)
	}
	return nil
}

// TransferMs reports the wire time of a payload.
func (l LinkSpec) TransferMs(bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	return float64(bytes) / (l.BandwidthMBps * 1e6 / 1000)
}

// MinLatencyMs is the link's guaranteed minimum message latency — the
// arbitration overhead a zero-byte message still pays. This is the
// lookahead the partitioned engine derives for channels carried by the
// link: every cross-LP delivery lands at least this far in the future.
func (l LinkSpec) MinLatencyMs() float64 { return l.OverheadMs }
