package stream

// Receiver is the decode side of the lossy transport: it reassembles
// framed packets (packet.go) into frame containers, detects gaps via
// sequence numbers, and applies a GOP-aware recovery policy:
//
//   - Missing packets are NACKed back to the sender with a timeout and
//     exponential backoff. I-frame packets get a deep retry budget — the
//     stream is undecodable without them. P-frame packets get a shallow
//     one: after it is exhausted the frame is concealed (the last good
//     frame is repeated) and the stream moves on.
//   - When an I-frame itself cannot be recovered the GOP reference is
//     lost: the receiver sends a ControlRefresh asking the sender to force
//     the next frame to be an I-frame, resets the decoder, and skips
//     P-frames until that refresh I-frame arrives.
//
// Frames are delivered in order through OnFrame; every submitted frame is
// eventually reported exactly once as decoded (byte-correct), concealed,
// or skipped — there is no silent corruption path, because every packet
// payload is checksummed and every decode failure is typed
// (codec.ErrCorruptFrame / codec.ErrMissingReference).
//
// Threading: a Receiver is driven by ONE transport goroutine (Ingest /
// Tick / Finish). Callbacks (SendControl, OnFrame) run on that goroutine
// and may synchronously feed retransmitted packets back into Ingest — the
// receiver queues re-entrant ingests instead of recursing. Metrics() is
// safe from any goroutine.

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/codec"
	"repro/internal/edgesim"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/viewport"
)

// FrameStatus is the receiver's verdict on one frame.
type FrameStatus int

const (
	// FrameDecoded frames decoded byte-correct.
	FrameDecoded FrameStatus = iota
	// FrameConcealed frames were lost P-frames: the last good frame is
	// repeated in their place and the GOP stays decodable.
	FrameConcealed
	// FrameSkipped frames could not be presented at all: a lost I-frame,
	// a P-frame without its reference, or a frame the sender never sent.
	FrameSkipped
)

func (s FrameStatus) String() string {
	switch s {
	case FrameDecoded:
		return "decoded"
	case FrameConcealed:
		return "concealed"
	case FrameSkipped:
		return "skipped"
	default:
		return fmt.Sprintf("FrameStatus(%d)", int(s))
	}
}

// ErrFrameLost reports a frame whose packets could not be recovered within
// the NACK retry budget.
var ErrFrameLost = errors.New("stream: frame lost in transit")

// ErrSenderDropped reports a frame the sender shed before transmission
// (a Server viewer's full queue; its sequence numbers were never used).
var ErrSenderDropped = errors.New("stream: frame dropped by sender")

// DecodedFrame is the fate of one frame at the receiver, delivered in
// frame order.
type DecodedFrame struct {
	Index int
	Type  codec.FrameType
	// Status tells whether Cloud is a byte-correct decode, a concealment
	// (last good frame), or absent.
	Status FrameStatus
	Cloud  *geom.VoxelCloud
	// Err explains concealed/skipped frames (ErrFrameLost,
	// ErrSenderDropped, codec.ErrMissingReference, codec.ErrCorruptFrame).
	Err error
	// Delay is the recovery delay: first fragment seen → frame resolved
	// (zero for frames that never arrived at all).
	Delay time.Duration
}

// ReceiverConfig configures a Receiver. Options must match the sender's.
// The modelled decode board runs at edgesim.Mode15W, and the receiver
// adopts the first stream id it sees, rejecting packets of any other.
type ReceiverConfig struct {
	// Options selects and configures the codec (as the sender's Config).
	Options codec.Options
	// SendControl transmits a control message (NACK, refresh) back to the
	// sender — typically Server.HandleControl or a socket write. Nil
	// disables active recovery: losses conceal/skip on timeout alone.
	SendControl func(Control) error
	// OnFrame receives every frame's fate, in frame order.
	OnFrame func(DecodedFrame)
	// PFrameRetries bounds the NACK retries for packets of P-frames
	// (default 2: shallow, they conceal). I-frame packets get
	// iFrameRetries.
	PFrameRetries int
	// FeedbackEvery emits a ControlFeedback report through SendControl after
	// every N delivered frames: windowed loss rate, NACK work, and frame
	// outcomes for the sender's congestion controller. 0 disables feedback
	// (the default — the transport behaves exactly as before).
	FeedbackEvery int
	// Now is the clock (default time.Now). Simulated transports inject a
	// virtual clock to make timeouts deterministic.
	Now func() time.Time
}

// Receiver recovery tuning.
const (
	// nackTimeout is the base retransmit timeout; retry n waits
	// nackTimeout << n.
	nackTimeout = 15 * time.Millisecond
	// iFrameRetries bounds the NACK retries for packets of I-frames (and
	// unattributed, possibly-I packets): deep, because the stream needs them.
	iFrameRetries = 6
	// maxSeqJump is the widest forward sequence jump that opens a gap of
	// missing packets: the sender's retransmit budget. A wider one reaches
	// back past what the sender still holds, so NACKing it could not repair
	// it: it is a corrupt header (the packet CRC covers the payload only)
	// or the far side of a blackout, and the packet is dropped (RFC 3550
	// Appendix A.1's update_seq, with this as MAX_DROPOUT).
	maxSeqJump = retxBudget
)

func (c ReceiverConfig) normalized() ReceiverConfig {
	if c.PFrameRetries <= 0 {
		c.PFrameRetries = 2
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// partialFrame is one frame being reassembled.
type partialFrame struct {
	index     uint32
	ftype     codec.FrameType
	firstSeq  uint32
	frags     [][]byte
	have      int
	failed    bool // retry budget exhausted; resolve as concealed/skipped
	firstSeen time.Time
	// parity holds the frame's pending FEC groups: each repairs its single
	// missing member as soon as the rest arrive, and is dropped once spent
	// (repaired, or nothing left to repair).
	parity []*ParityGroup
}

// lossState tracks one missing sequence number's NACK schedule.
type lossState struct {
	deadline time.Time
	attempts int
}

// Receiver reassembles and decodes a lossy packet stream. Create with
// NewReceiver; see the package comment for the threading model.
type Receiver struct {
	cfg      ReceiverConfig
	dev      *edgesim.Device
	dec      *codec.Decoder
	counters metrics.RecoveryCounters
	fec      metrics.FECCounters

	inbox [][]byte
	busy  bool

	streamID  uint32
	nextSeq   uint32 // next expected sequence number, modulo 2^32
	missing   map[uint32]*lossState
	frames    map[uint32]*partialFrame
	nextFrame uint32 // next frame index to deliver
	// prehealed marks sequence numbers repaired from parity BEFORE any
	// later arrival revealed their loss (a repaired tail fragment): when
	// the gap detector later sweeps past one, it must not open a missing
	// entry for an already-healed packet.
	prehealed map[uint32]struct{}
	// gapLost marks that packets of entirely-unseen frames were given up:
	// the frames in the current index gap were lost (not sender-dropped).
	gapLost bool
	// jumpNext is the sequence number after the last packet dropped for a
	// jump wider than maxSeqJump (valid while jumped): a packet carrying it
	// resyncs the sequence space there.
	jumpNext uint32
	jumped   bool
	// skipLo..skipHi is the sequence range the last resync skipped without
	// tracking it: a frame with fragments in it can never complete.
	skipLo, skipHi uint32
	// refValid tracks whether the decoder holds a usable GOP reference.
	refValid bool
	// refreshPending suppresses duplicate refresh requests until the next
	// I-frame decodes.
	refreshPending bool
	lastCloud      *geom.VoxelCloud
	finished       bool
	err            error

	// Feedback reporting (FeedbackEvery > 0): fbReport numbers the reports
	// monotonically; fbBase is the counter snapshot at the previous report,
	// so each report carries window deltas, not lifetime totals.
	fbReport uint32
	fbBase   metrics.RecoverySnapshot
}

// NewReceiver creates a receiver decoding on a fresh device model.
func NewReceiver(cfg ReceiverConfig) *Receiver {
	cfg = cfg.normalized()
	dev := edgesim.NewXavier(edgesim.Mode15W)
	return &Receiver{
		cfg:       cfg,
		dev:       dev,
		dec:       codec.NewDecoder(dev, cfg.Options),
		missing:   make(map[uint32]*lossState),
		frames:    make(map[uint32]*partialFrame),
		prehealed: make(map[uint32]struct{}),
	}
}

// Device exposes the decode-side device model.
func (r *Receiver) Device() *edgesim.Device { return r.dev }

// Metrics snapshots the receiver's recovery counters, including its FEC
// parity counters (safe from any goroutine).
func (r *Receiver) Metrics() metrics.RecoverySnapshot {
	snap := r.counters.Snapshot()
	snap.FEC = r.fec.Snapshot()
	return snap
}

// Err returns the first control-channel error, if any.
func (r *Receiver) Err() error { return r.err }

// SendViewport reports this viewer's camera to the sender: tiled frames
// are culled against it server-side from the next send on (tiles outside
// the frustum dropped, near-misses sent geometry-only — see
// Viewer.SetViewport). A camera with FOVDegrees <= 0 clears the viewport
// and full frames resume. Like every Receiver method it runs on the
// receiver's driving goroutine.
func (r *Receiver) SendViewport(cam viewport.Camera) {
	r.sendControl(Control{Kind: ControlViewport, StreamID: r.streamID, Camera: cam})
}

// SendLayers asks the sender to truncate layered frames to their first sub
// layers for this viewer from the next send on (see Viewer.SetLayers). Zero
// clears the subscription: full frames resume at the next keyframe. A
// no-op for unlayered streams.
func (r *Receiver) SendLayers(sub uint8) {
	r.sendControl(Control{Kind: ControlLayers, StreamID: r.streamID, Layers: sub})
}

// Ingest feeds one received packet (header + payload, as framed by the
// sender). Safe to call re-entrantly from SendControl/OnFrame callbacks.
func (r *Receiver) Ingest(raw []byte) {
	r.inbox = append(r.inbox, raw)
	if r.busy {
		return
	}
	r.busy = true
	r.drain()
	r.busy = false
}

// Tick advances the NACK timeout machinery without a packet arrival. Call
// it periodically on live transports (packet arrivals also check).
func (r *Receiver) Tick() {
	if r.busy || r.finished {
		return
	}
	r.busy = true
	now := r.cfg.Now()
	r.checkTimeouts(now, false)
	r.advance(now)
	r.drain()
	r.busy = false
}

// drain processes queued packets, including ones enqueued re-entrantly by
// retransmissions triggered from within processing.
func (r *Receiver) drain() {
	for len(r.inbox) > 0 {
		raw := r.inbox[0]
		r.inbox = r.inbox[1:]
		r.ingestOne(raw)
	}
}

func (r *Receiver) ingestOne(raw []byte) {
	if r.finished {
		return
	}
	now := r.cfg.Now()
	r.counters.PacketReceived()
	pkt, err := ParsePacket(raw)
	if err != nil {
		// Corrupt in flight: indistinguishable from a loss; the sequence
		// gap it leaves behind drives recovery.
		r.counters.PacketCorrupt()
		return
	}
	h := pkt.Header
	if h.Flags&FlagControl != 0 {
		return // control flows sender-ward; not ours to consume
	}
	if r.streamID == 0 {
		r.streamID = h.StreamID
	}
	if h.StreamID != r.streamID {
		r.counters.PacketCorrupt()
		return
	}
	if h.Flags&FlagParity != 0 {
		// Parity packets occupy no slot in the data sequence stream: route
		// them to repair before any sequence bookkeeping.
		r.ingestParity(pkt, now)
		return
	}
	if h.Flags&FlagRetransmit != 0 {
		r.counters.RetransmitReceived()
	}
	if h.Flags&FlagCached != 0 {
		r.counters.CachedReceived()
	}

	// Sequence tracking, modulo 2^32: a jump past nextSeq opens a gap of
	// missing seqs; an arrival inside the missing set heals it (retransmit
	// or reorder). A jump wider than maxSeqJump is dropped, unless it
	// follows the last dropped one: then the stream resyncs.
	if gap := h.Seq - r.nextSeq; gap > maxSeqJump && gap < 1<<31 {
		if !r.jumped || h.Seq != r.jumpNext {
			r.jumped, r.jumpNext = true, h.Seq+1
			r.counters.PacketCorrupt()
			return
		}
		r.resync(h.Seq - 1)
	}
	if ahead(h.Seq, r.nextSeq) {
		for s := r.nextSeq; s != h.Seq; s++ {
			if _, ok := r.prehealed[s]; ok {
				delete(r.prehealed, s) // parity already rebuilt this one
				continue
			}
			r.missing[s] = &lossState{deadline: now.Add(nackTimeout)}
		}
		delete(r.prehealed, h.Seq) // a repaired original arriving late
		r.nextSeq = h.Seq + 1
		if r.skipLo != r.skipHi && r.nextSeq-r.skipHi > 1<<17 {
			// Past the reach of any frame (65535 fragments at most) that
			// could overlap the skipped range.
			r.skipLo = r.skipHi
		}
	} else if ls, open := r.missing[h.Seq]; open {
		if ls.attempts >= 1 {
			// Late retransmit landing after its first NACK timeout already
			// counted it lost — net it back out of the next feedback window.
			r.counters.PacketRecovered()
		}
		delete(r.missing, h.Seq)
	} else {
		r.counters.PacketDuplicate()
		return
	}

	// Frame reassembly.
	if h.FrameIndex >= uint32(len(r.frames))+r.nextFrame+1<<20 {
		// Absurd jump (corrupt header that passed CRC of its payload only).
		r.counters.PacketCorrupt()
		return
	}
	if h.FrameIndex < r.nextFrame {
		r.counters.PacketDuplicate() // frame already resolved; late copy
		return
	}
	pf := r.frames[h.FrameIndex]
	if pf == nil {
		pf = r.newFrame(h, h.Seq-uint32(h.Frag), int(h.FragCount), now)
	}
	if int(h.FragCount) != len(pf.frags) || pf.firstSeq != h.Seq-uint32(h.Frag) || pf.ftype != h.FrameType {
		r.counters.PacketCorrupt() // inconsistent with sibling fragments
		return
	}
	if pf.frags[h.Frag] != nil {
		r.counters.PacketDuplicate()
		return
	}
	pf.frags[h.Frag] = pkt.Payload
	pf.have++
	if len(pf.parity) > 0 {
		// This arrival may have reduced one of the frame's parity groups to
		// a single missing member — repairable now.
		r.tryRepair(pf)
	}

	r.advance(now)
	r.checkTimeouts(now, false)
}

// ahead reports whether sequence number a is at or after b, modulo 2^32.
func ahead(a, b uint32) bool { return int32(a-b) >= 0 }

// inSeqRange reports whether s lies in [lo, hi), modulo 2^32.
func inSeqRange(s, lo, hi uint32) bool { return s-lo < hi-lo }

// newFrame opens reassembly state for the frame h belongs to. A frame with
// fragments in the range the last resync skipped starts failed.
func (r *Receiver) newFrame(h PacketHeader, firstSeq uint32, frags int, now time.Time) *partialFrame {
	pf := &partialFrame{
		index:     h.FrameIndex,
		ftype:     h.FrameType,
		firstSeq:  firstSeq,
		frags:     make([][]byte, frags),
		firstSeen: now,
	}
	pf.failed = r.skipped(pf)
	r.frames[h.FrameIndex] = pf
	return pf
}

// skipped reports whether pf has fragments in the range the last resync
// skipped.
func (r *Receiver) skipped(pf *partialFrame) bool {
	end := pf.firstSeq + uint32(len(pf.frags))
	return r.skipLo != r.skipHi &&
		(inSeqRange(pf.firstSeq, r.skipLo, r.skipHi) || inSeqRange(r.skipLo, pf.firstSeq, end))
}

// resync moves the sequence space across a jump wider than maxSeqJump: the
// next expected packet becomes dropped, the one that first showed the jump
// and was thrown away (it gets the one missing entry, so it is NACKed like
// any loss). The skipped range [nextSeq, dropped) opens no per-sequence
// state. Its fragments can never be recovered, so the frames with any fail
// now or when they first show up, and whole frames that vanished in it
// resolve as lost, not as sender drops.
func (r *Receiver) resync(dropped uint32) {
	r.skipLo, r.skipHi = r.nextSeq, dropped
	for _, pf := range r.frames {
		if pf.have < len(pf.frags) && r.skipped(pf) {
			pf.failed = true
		}
	}
	for s := range r.prehealed {
		if inSeqRange(s, r.skipLo, r.skipHi) {
			delete(r.prehealed, s)
		}
	}
	r.gapLost = true
	r.jumped = false
	r.nextSeq = dropped
}

// ingestParity folds one parity packet into its frame's reassembly state
// and repairs whatever it can. Malformed or frame-inconsistent parity
// counts corrupt; parity for already-resolved frames counts wasted.
func (r *Receiver) ingestParity(pkt Packet, now time.Time) {
	h := pkt.Header
	pg, err := ParseParity(pkt.Payload)
	if err != nil {
		r.counters.PacketCorrupt()
		return
	}
	r.fec.ParityReceived()
	if h.FrameIndex < r.nextFrame {
		r.fec.ParityWasted() // frame already resolved; nothing to repair
		return
	}
	if h.FrameIndex >= uint32(len(r.frames))+r.nextFrame+1<<20 {
		r.counters.PacketCorrupt()
		return
	}
	pf := r.frames[h.FrameIndex]
	if pf == nil {
		// Parity alone carries the frame geometry: set up reassembly state
		// even when every data packet is still in flight (or lost).
		pf = r.newFrame(h, pg.FrameFirstSeq, int(pg.FragCount), now)
	}
	if int(pg.FragCount) != len(pf.frags) || pf.firstSeq != pg.FrameFirstSeq || pf.ftype != h.FrameType {
		r.counters.PacketCorrupt() // inconsistent with sibling fragments
		return
	}
	for _, g := range pf.parity {
		if g.BaseSeq == pg.BaseSeq && g.Stride == pg.Stride {
			r.counters.PacketDuplicate()
			return
		}
	}
	// Repair XORs arrivals into the body in place: keep a private copy so a
	// duplicated parity packet (same backing bytes) stays parseable.
	pg.Body = append([]byte(nil), pg.Body...)
	pf.parity = append(pf.parity, &pg)
	r.tryRepair(pf)
	r.advance(now)
}

// tryRepair runs every pending parity group of pf, dropping the spent
// ones (repaired a member, or had nothing to repair).
func (r *Receiver) tryRepair(pf *partialFrame) {
	kept := pf.parity[:0]
	for _, g := range pf.parity {
		if r.repairGroup(pf, g) {
			kept = append(kept, g)
		}
	}
	for i := len(kept); i < len(pf.parity); i++ {
		pf.parity[i] = nil
	}
	pf.parity = kept
}

// repairGroup reconstructs the group's single missing member if exactly
// one is missing. Returns true when the group is still pending (≥ 2
// members missing — the NACK path keeps chasing them), false when spent.
func (r *Receiver) repairGroup(pf *partialFrame, g *ParityGroup) bool {
	miss := -1
	for i := 0; i < int(g.Count); i++ {
		frag := int(g.BaseSeq-pf.firstSeq) + i*int(g.Stride)
		if pf.frags[frag] == nil {
			if miss >= 0 {
				return true // two or more missing: XOR cannot resolve yet
			}
			miss = frag
		}
	}
	if miss < 0 {
		r.fec.ParityWasted() // every member arrived on its own
		return false
	}
	// XOR the present members into the body: what remains is the missing
	// member's [len16 || payload] record.
	for i := 0; i < int(g.Count); i++ {
		frag := int(g.BaseSeq-pf.firstSeq) + i*int(g.Stride)
		if frag != miss {
			xorRecord(g.Body, pf.frags[frag])
		}
	}
	plen := int(g.Body[0]) | int(g.Body[1])<<8
	if plen > len(g.Body)-2 {
		r.counters.PacketCorrupt() // parity/data disagree on geometry
		return false
	}
	seq := pf.firstSeq + uint32(miss)
	if ls, open := r.missing[seq]; open {
		if ls.attempts >= 1 {
			r.counters.PacketRecovered()
		}
		delete(r.missing, seq)
	} else if ahead(seq, r.nextSeq) {
		// Repaired before any later arrival revealed the loss: remember so
		// the gap detector won't re-open it.
		r.prehealed[seq] = struct{}{}
	}
	pf.frags[miss] = g.Body[2 : 2+plen]
	pf.have++
	r.fec.ParityRepair()
	return false
}

// findFrame returns the pending frame whose sequence range contains seq.
func (r *Receiver) findFrame(seq uint32) *partialFrame {
	for _, pf := range r.frames {
		if seq-pf.firstSeq < uint32(len(pf.frags)) {
			return pf
		}
	}
	return nil
}

// retryBudget returns the NACK retry budget for one missing seq: deep for
// I-frame (and unattributed — possibly-I) packets, shallow for P.
func (r *Receiver) retryBudget(seq uint32) int {
	if pf := r.findFrame(seq); pf != nil && pf.ftype == codec.PFrame {
		return r.cfg.PFrameRetries
	}
	return iFrameRetries
}

// checkTimeouts re-NACKs every missing seq whose deadline passed (force
// treats all as due) with exponential backoff, and gives up on seqs whose
// retry budget is exhausted.
func (r *Receiver) checkTimeouts(now time.Time, force bool) {
	var due []uint32
	for s, ls := range r.missing {
		if force || !now.Before(ls.deadline) {
			due = append(due, s)
		}
	}
	if len(due) == 0 {
		return
	}
	// Sorted processing keeps the NACK (and so the retransmit) order
	// deterministic across runs.
	sort.Slice(due, func(i, j int) bool { return int32(due[i]-due[j]) < 0 })
	var nack []uint32
	for _, s := range due {
		ls := r.missing[s]
		if ls == nil {
			continue // healed by a retransmit earlier in this pass
		}
		if ls.attempts >= r.retryBudget(s) {
			r.giveUp(s)
			continue
		}
		ls.attempts++
		if ls.attempts == 1 {
			// First NACK timeout expired without the packet arriving: count
			// it lost. Reorders that heal inside the timeout never get here.
			r.counters.PacketLost()
		}
		ls.deadline = now.Add(nackTimeout << uint(ls.attempts))
		nack = append(nack, s)
	}
	if len(nack) > 0 {
		r.sendControl(Control{Kind: ControlNACK, StreamID: r.streamID, Seqs: nack})
		r.counters.NACKSent(len(nack))
	}
	r.advance(now)
}

// giveUp abandons one missing seq: its frame (if known) is marked failed;
// unattributed seqs mean whole frames vanished, which the index-gap logic
// in advance resolves via gapLost.
func (r *Receiver) giveUp(seq uint32) {
	delete(r.missing, seq)
	r.counters.NACKGiveUp()
	if pf := r.findFrame(seq); pf != nil {
		pf.failed = true
	} else {
		r.gapLost = true
	}
}

// minPending returns the smallest pending frame index.
func (r *Receiver) minPending() (uint32, bool) {
	var best uint32
	found := false
	for idx := range r.frames {
		if !found || idx < best {
			best, found = idx, true
		}
	}
	return best, found
}

// missingBefore reports whether any missing seq precedes firstSeq.
func (r *Receiver) missingBefore(firstSeq uint32) bool {
	for s := range r.missing {
		if !ahead(s, firstSeq) {
			return true
		}
	}
	return false
}

// advance delivers frames in order while the head of line is resolvable:
// complete frames decode, failed frames conceal or skip, and index gaps
// with fully-accounted sequence numbers resolve as sender-dropped or lost.
// Each pass ends with a feedback check (maybeFeedback).
func (r *Receiver) advance(now time.Time) {
	r.deliver(now)
	r.maybeFeedback()
}

func (r *Receiver) deliver(now time.Time) {
	for {
		if pf, ok := r.frames[r.nextFrame]; ok {
			if pf.failed {
				r.resolveFailed(pf, now)
			} else if pf.have == len(pf.frags) {
				r.decodeAndEmit(pf, now)
			} else {
				return // head of line still recovering
			}
			r.nextFrame++
			continue
		}
		// Frame index never seen. If no missing seq precedes the next
		// pending frame, the gap's seqs are all accounted for: the sender
		// never sent this index (shed from the sender's queue) or
		// its packets were given up on (gapLost).
		next, ok := r.minPending()
		if !ok || next <= r.nextFrame {
			return
		}
		if r.missingBefore(r.frames[next].firstSeq) {
			return // the gap may still fill in via retransmits
		}
		if r.gapLost {
			// Unknown frame type: the lost frame may have been the GOP
			// reference — recover conservatively.
			r.loseReference(r.nextFrame)
			r.emit(DecodedFrame{Index: int(r.nextFrame), Type: codec.PFrame,
				Status: FrameSkipped, Err: ErrFrameLost})
			r.counters.FrameSkipped()
		} else {
			r.emit(DecodedFrame{Index: int(r.nextFrame), Type: codec.PFrame,
				Status: FrameSkipped, Err: ErrSenderDropped})
			r.counters.FrameSkipped()
		}
		r.nextFrame++
		if r.nextFrame == next {
			r.gapLost = false
		}
	}
}

// maybeFeedback emits a ControlFeedback report once FeedbackEvery frames
// have resolved since the previous report. Runs on the transport goroutine
// after the in-order delivery loop, so a report reflects a consistent
// prefix of the stream.
func (r *Receiver) maybeFeedback() {
	if r.cfg.FeedbackEvery <= 0 || r.cfg.SendControl == nil {
		return
	}
	cur := r.counters.Snapshot()
	if cur.Frames()-r.fbBase.Frames() < int64(r.cfg.FeedbackEvery) {
		return
	}
	// Net recoveries (parity repairs and late retransmits that already
	// counted lost) out of the window's losses: a healed packet must not
	// keep inflating the controller's loss signal. Clamped at zero — a
	// recovery can land a window after its loss was reported.
	lost := cur.PacketsLost - r.fbBase.PacketsLost
	if rec := cur.PacketsRecovered - r.fbBase.PacketsRecovered; rec < lost {
		lost -= rec
	} else {
		lost = 0
	}
	r.fbReport++
	fb := Feedback{
		Report:       r.fbReport,
		HighestFrame: r.nextFrame,
		Received:     uint32(cur.PacketsReceived - r.fbBase.PacketsReceived),
		Lost:         uint32(lost),
		NACKs:        uint32(cur.NACKSeqs - r.fbBase.NACKSeqs),
		Decoded:      uint32(cur.FramesDecoded - r.fbBase.FramesDecoded),
		Concealed:    uint32(cur.FramesConcealed - r.fbBase.FramesConcealed),
		Skipped:      uint32(cur.FramesSkipped - r.fbBase.FramesSkipped),
	}
	r.fbBase = cur
	r.sendControl(Control{Kind: ControlFeedback, StreamID: r.streamID,
		FrameIndex: r.nextFrame, Feedback: fb})
}

// resolveFailed conceals or skips a frame whose retry budget ran out.
func (r *Receiver) resolveFailed(pf *partialFrame, now time.Time) {
	r.forgetFrame(pf)
	switch {
	case pf.ftype == codec.IFrame:
		// The GOP reference is gone: ask the sender for a fresh I-frame
		// and skip until it arrives.
		r.loseReference(pf.index)
		r.emit(DecodedFrame{Index: int(pf.index), Type: pf.ftype, Status: FrameSkipped,
			Err: ErrFrameLost, Delay: now.Sub(pf.firstSeen)})
		r.counters.FrameSkipped()
	case !r.refValid:
		r.emit(DecodedFrame{Index: int(pf.index), Type: pf.ftype, Status: FrameSkipped,
			Err: codec.ErrMissingReference, Delay: now.Sub(pf.firstSeen)})
		r.counters.FrameSkipped()
	default:
		// Lost P-frame with a healthy GOP: conceal by repeating the last
		// good frame; later P-frames still predict from the intact I.
		r.emit(DecodedFrame{Index: int(pf.index), Type: pf.ftype, Status: FrameConcealed,
			Cloud: r.lastCloud, Err: ErrFrameLost, Delay: now.Sub(pf.firstSeen)})
		r.counters.FrameConcealed()
	}
}

// decodeAndEmit decodes a fully reassembled frame.
func (r *Receiver) decodeAndEmit(pf *partialFrame, now time.Time) {
	r.forgetFrame(pf)
	size := 0
	for _, f := range pf.frags {
		size += len(f)
	}
	payload := make([]byte, 0, size)
	for _, f := range pf.frags {
		payload = append(payload, f...)
	}
	ef, err := codec.ParseFrame(payload)
	var cloud *geom.VoxelCloud
	if err == nil {
		cloud, err = r.dec.DecodeFrame(ef)
	}
	delay := now.Sub(pf.firstSeen)
	switch {
	case err == nil:
		if pf.ftype == codec.IFrame {
			r.refValid = true
			r.refreshPending = false
		}
		r.lastCloud = cloud
		r.emit(DecodedFrame{Index: int(pf.index), Type: pf.ftype, Status: FrameDecoded,
			Cloud: cloud, Delay: delay})
		r.counters.FrameDecoded()
	case errors.Is(err, codec.ErrMissingReference):
		// P-frame arrived intact but its I was skipped.
		r.loseReference(pf.index)
		r.emit(DecodedFrame{Index: int(pf.index), Type: pf.ftype, Status: FrameSkipped,
			Err: err, Delay: delay})
		r.counters.FrameSkipped()
	case pf.ftype == codec.IFrame:
		// Corrupt I despite per-packet checksums (defense in depth).
		r.loseReference(pf.index)
		r.emit(DecodedFrame{Index: int(pf.index), Type: pf.ftype, Status: FrameSkipped,
			Err: err, Delay: delay})
		r.counters.FrameSkipped()
	default:
		r.emit(DecodedFrame{Index: int(pf.index), Type: pf.ftype, Status: FrameConcealed,
			Cloud: r.lastCloud, Err: err, Delay: delay})
		r.counters.FrameConcealed()
	}
}

// forgetFrame drops a frame's reassembly state, including any still-missing
// seqs in its range (late copies will count as duplicates).
func (r *Receiver) forgetFrame(pf *partialFrame) {
	delete(r.frames, pf.index)
	for i := range pf.frags {
		delete(r.missing, pf.firstSeq+uint32(i))
		delete(r.prehealed, pf.firstSeq+uint32(i))
	}
	for range pf.parity {
		r.fec.ParityWasted() // still pending at resolution: bought nothing
	}
	pf.parity = nil
}

// loseReference records GOP reference loss: the decoder resets, P-frames
// skip until the next I, and (once per loss) a refresh request goes back
// to the sender.
func (r *Receiver) loseReference(frameIndex uint32) {
	r.refValid = false
	r.dec.Reset()
	if r.refreshPending {
		return
	}
	r.refreshPending = true
	r.counters.RefreshRequest()
	r.sendControl(Control{Kind: ControlRefresh, StreamID: r.streamID, FrameIndex: frameIndex})
}

func (r *Receiver) sendControl(c Control) {
	if r.cfg.SendControl == nil {
		return
	}
	if err := r.cfg.SendControl(c); err != nil && r.err == nil {
		r.err = err
	}
}

func (r *Receiver) emit(f DecodedFrame) {
	if r.cfg.OnFrame != nil {
		r.cfg.OnFrame(f)
	}
}

// Finish ends the stream: totalFrames is the sender's submitted frame
// count. Outstanding gaps get a final forced NACK round per remaining
// retry, then everything unrecovered is concealed/skipped, including tail
// frames that never arrived at all. Returns the first control error.
func (r *Receiver) Finish(totalFrames int) error {
	if r.finished {
		return r.err
	}
	r.busy = true
	defer func() { r.busy = false; r.finished = true }()
	r.drain()
	now := r.cfg.Now()

	// Declare the invisible tail: fragments of partially received frames
	// whose loss no later packet revealed.
	for _, pf := range r.frames {
		for i := range pf.frags {
			seq := pf.firstSeq + uint32(i)
			if pf.frags[i] == nil && seq >= r.nextSeq {
				r.missing[seq] = &lossState{deadline: now}
			}
		}
		if end := pf.firstSeq + uint32(len(pf.frags)); end > r.nextSeq {
			r.nextSeq = end
		}
	}

	// Final recovery rounds: force every missing seq due, let synchronous
	// retransmissions land, until the budget gives out or nothing is left.
	for i := 0; i <= iFrameRetries && len(r.missing) > 0; i++ {
		r.checkTimeouts(now, true)
		r.drain()
	}
	var rest []uint32
	for s := range r.missing {
		rest = append(rest, s)
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i] < rest[j] })
	for _, s := range rest {
		r.giveUp(s)
	}
	r.advance(now)
	r.drain()

	// Frames that never produced a single packet and have no successor to
	// reveal them: lost tail.
	for r.nextFrame < uint32(totalFrames) {
		if pf, ok := r.frames[r.nextFrame]; ok {
			pf.failed = true
			r.advance(now)
			continue
		}
		r.refValid = false
		r.emit(DecodedFrame{Index: int(r.nextFrame), Type: codec.PFrame,
			Status: FrameSkipped, Err: ErrFrameLost})
		r.counters.FrameSkipped()
		r.nextFrame++
	}
	return r.err
}
