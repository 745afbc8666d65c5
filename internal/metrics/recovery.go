package metrics

// Loss-recovery instrumentation for the lossy-transport receiver
// (pcc/stream.Receiver): packet-level arrival/corruption counters and
// frame-level recovery outcomes. Everything is atomic so a live session's
// counters can be scraped while the transport goroutine is running.

import "sync/atomic"

// RecoveryCounters tracks a receiver's packet- and frame-level recovery
// statistics. The zero value is ready to use. All methods are safe for
// concurrent use.
type RecoveryCounters struct {
	// Packet level.
	packetsReceived  atomic.Int64
	packetsCorrupt   atomic.Int64
	packetsDuplicate atomic.Int64
	packetsLost      atomic.Int64
	retransmitsRecv  atomic.Int64
	cachedRecv       atomic.Int64
	packetsRecovered atomic.Int64
	// Recovery protocol.
	nacksSent       atomic.Int64
	nackSeqs        atomic.Int64
	nackGiveUps     atomic.Int64
	refreshRequests atomic.Int64
	// Frame outcomes. Decoded frames are byte-correct; concealed frames
	// were replaced by the last good frame; skipped frames were emitted
	// with no content (lost, or undecodable without their reference).
	framesDecoded   atomic.Int64
	framesConcealed atomic.Int64
	framesSkipped   atomic.Int64
}

func (c *RecoveryCounters) PacketReceived()     { c.packetsReceived.Add(1) }
func (c *RecoveryCounters) PacketCorrupt()      { c.packetsCorrupt.Add(1) }
func (c *RecoveryCounters) PacketDuplicate()    { c.packetsDuplicate.Add(1) }
func (c *RecoveryCounters) RetransmitReceived() { c.retransmitsRecv.Add(1) }

// PacketLost records a sequence number observed lost on its first
// transmission: the stream proved it lost (a later frame or its parity
// group arrived without it), or its first NACK timeout expired without it
// arriving. Reordered packets that heal before either are not counted.
// This is the receiver-side loss signal the congestion feedback reports
// carry.
func (c *RecoveryCounters) PacketLost() { c.packetsLost.Add(1) }

// PacketRecovered records a sequence number healed AFTER it was already
// counted lost by PacketLost — a parity repair or a retransmit landing
// after its loss was counted. Feedback windows net these
// against PacketsLost so the congestion controller does not keep seeing
// losses that were in fact recovered.
func (c *RecoveryCounters) PacketRecovered() { c.packetsRecovered.Add(1) }

// CachedReceived records a packet replayed from a sender-side keyframe
// cache (a late join served from the last encoded I-frame).
func (c *RecoveryCounters) CachedReceived() { c.cachedRecv.Add(1) }
func (c *RecoveryCounters) NACKSent(seqs int) {
	c.nacksSent.Add(1)
	c.nackSeqs.Add(int64(seqs))
}
func (c *RecoveryCounters) NACKGiveUp()     { c.nackGiveUps.Add(1) }
func (c *RecoveryCounters) RefreshRequest() { c.refreshRequests.Add(1) }
func (c *RecoveryCounters) FrameDecoded()   { c.framesDecoded.Add(1) }
func (c *RecoveryCounters) FrameConcealed() { c.framesConcealed.Add(1) }
func (c *RecoveryCounters) FrameSkipped()   { c.framesSkipped.Add(1) }

// RecoverySnapshot is a point-in-time copy of a RecoveryCounters.
type RecoverySnapshot struct {
	PacketsReceived     int64
	PacketsCorrupt      int64
	PacketsDuplicate    int64
	PacketsLost         int64
	RetransmitsReceived int64
	CachedReceived      int64
	PacketsRecovered    int64
	NACKsSent           int64
	NACKSeqs            int64
	NACKGiveUps         int64
	RefreshRequests     int64
	FramesDecoded       int64
	FramesConcealed     int64
	FramesSkipped       int64
	// FEC carries the receiver's parity counters when forward error
	// correction is in play (the Receiver merges its FECCounters in;
	// Snapshot alone leaves it zero).
	FEC FECSnapshot
}

// Frames returns the total number of frame outcomes recorded.
func (s RecoverySnapshot) Frames() int64 {
	return s.FramesDecoded + s.FramesConcealed + s.FramesSkipped
}

// DecodedRatio returns FramesDecoded / total frames (1 when no frames).
func (s RecoverySnapshot) DecodedRatio() float64 {
	if n := s.Frames(); n > 0 {
		return float64(s.FramesDecoded) / float64(n)
	}
	return 1
}

// Snapshot copies the counters. Taken while the transport is live, fields
// are individually — not mutually — consistent.
func (c *RecoveryCounters) Snapshot() RecoverySnapshot {
	return RecoverySnapshot{
		PacketsReceived:     c.packetsReceived.Load(),
		PacketsCorrupt:      c.packetsCorrupt.Load(),
		PacketsDuplicate:    c.packetsDuplicate.Load(),
		PacketsLost:         c.packetsLost.Load(),
		RetransmitsReceived: c.retransmitsRecv.Load(),
		CachedReceived:      c.cachedRecv.Load(),
		PacketsRecovered:    c.packetsRecovered.Load(),
		NACKsSent:           c.nacksSent.Load(),
		NACKSeqs:            c.nackSeqs.Load(),
		NACKGiveUps:         c.nackGiveUps.Load(),
		RefreshRequests:     c.refreshRequests.Load(),
		FramesDecoded:       c.framesDecoded.Load(),
		FramesConcealed:     c.framesConcealed.Load(),
		FramesSkipped:       c.framesSkipped.Load(),
	}
}
