package metrics

// Forward-error-correction instrumentation for the receiver: parity
// arrivals and what each one bought (a repair, or wasted overhead). A
// sender counts the parity it emits in its own metrics
// (stream.ViewerMetrics.ParitySent), and the congestion controller its
// probe outcomes in ControllerCounters.

import "sync/atomic"

// FECCounters tracks received parity traffic. The zero value is ready to
// use; all methods are safe for concurrent use.
type FECCounters struct {
	parityReceived atomic.Int64
	parityRepairs  atomic.Int64
	parityWasted   atomic.Int64
}

// ParityReceived records one well-formed parity packet at the receiver.
func (c *FECCounters) ParityReceived() { c.parityReceived.Add(1) }

// ParityRepair records a data packet reconstructed from parity — a loss
// healed with zero retransmit round trips.
func (c *FECCounters) ParityRepair() { c.parityRepairs.Add(1) }

// ParityWasted records a parity group that bought nothing: every covered
// packet already arrived, or its frame resolved before the group could
// repair anything.
func (c *FECCounters) ParityWasted() { c.parityWasted.Add(1) }

// FECSnapshot is a point-in-time copy of an FECCounters.
type FECSnapshot struct {
	ParityReceived int64
	ParityRepairs  int64
	ParityWasted   int64
}

// Snapshot copies the counters. Taken live, fields are individually — not
// mutually — consistent.
func (c *FECCounters) Snapshot() FECSnapshot {
	return FECSnapshot{
		ParityReceived: c.parityReceived.Load(),
		ParityRepairs:  c.parityRepairs.Load(),
		ParityWasted:   c.parityWasted.Load(),
	}
}
