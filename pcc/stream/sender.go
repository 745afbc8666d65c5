package stream

// The one send path: plan → cut → gather → frame → parity → record →
// emit, and rebuild on NACK. A Server drives one sender per Viewer; a
// Session's send-only PacketOut keeps no sender and frames each frame with
// viewPlan.packets. A frame is an immutable payload (ring.go);
// what a send ships of it is a viewPlan — the identity plan for a whole
// frame, a culled and/or layer-truncated plan for a viewer that drops
// tiles or layers — and packets and parity bodies are cut from the plan's
// spans, whatever the plan. What does not depend on the receiver — plan,
// payload CRCs, parity bodies — is a frameCut, built once per (view, MTU)
// of a frame and shared by every sender of it; what does — the header
// fields — is framed per send, every packet into one slab. Nothing
// per-packet outlives a send: a sent-record maps the frame's sequence
// range to the payload (held once, by the shard's retransmit cache) and to
// the view it was sent with, and a NACK re-frames the original packet from
// those.

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sort"
	"sync"

	"repro/internal/codec"
)

// ErrFrameTooLarge reports a frame of more fragments, at the sender's MTU,
// than a packet header's 16-bit fragment count can number. The frame is
// refused whole: a Session's PacketOut stream fails the session with it, a
// Viewer is marked failed like any transport error.
var ErrFrameTooLarge = errors.New("stream: frame exceeds 65535 fragments")

// clampMTU is the one MTU rule: a payload size below floor means def, and
// none exceeds MaxPayload. Configurations clamp once (Config, ServerConfig,
// Attach); fragment counts, packet splits and cache budgets downstream all
// read the clamped value.
func clampMTU(mtu, floor, def int) int {
	if mtu < floor {
		mtu = def
	}
	return min(mtu, MaxPayload)
}

// fragsAtMTU is the fragment count of a total-byte frame split at mtu:
// ceil division, with an empty frame still shipping one (empty) packet.
func fragsAtMTU(total, mtu int) int {
	return max((total+mtu-1)/mtu, 1)
}

// viewPlan is a frame as one send ships it: byte spans over the immutable
// published payload, in container order. A culled or layer-truncated view
// is the rewritten header (its only copy) plus the kept tiles' and layers'
// chunks; a whole frame is the identity plan, one span and no rewrite.
type viewPlan struct {
	spans   [][]byte
	tileOf  []uint16 // tile id per span; TileNone for the header
	layerOf []uint8  // layer id per span; LayerNone for the header / unlayered
	cum     []int    // len(spans)+1 prefix byte offsets
	total   int      // planned frame length (== cum[len(spans)])
}

// newViewPlan returns an empty plan with room for n spans.
func newViewPlan(n int) *viewPlan {
	return &viewPlan{
		spans:   make([][]byte, 0, n),
		tileOf:  make([]uint16, 0, n),
		layerOf: make([]uint8, 0, n),
		cum:     make([]int, 1, n+1),
	}
}

// add appends one span (unless empty) with its bytes' tile and layer ids.
func (p *viewPlan) add(b []byte, tile uint16, layer uint8) {
	if len(b) == 0 {
		return
	}
	p.spans = append(p.spans, b)
	p.tileOf = append(p.tileOf, tile)
	p.layerOf = append(p.layerOf, layer)
	p.total += len(b)
	p.cum = append(p.cum, p.total)
}

// identityPlan is the plan of a frame shipped whole: wire as one span,
// built once per published frame and shared read-only by every cut of the
// whole frame, whatever its MTU.
func identityPlan(wire []byte) *viewPlan {
	p := newViewPlan(1)
	p.add(wire, TileNone, LayerNone)
	return p
}

// bounds returns the byte range of fragment frag when the planned frame is
// split at mtu.
func (p *viewPlan) bounds(frag, mtu int) (lo, hi int) {
	lo = min(frag*mtu, p.total)
	return lo, min(lo+mtu, p.total)
}

// spanAt returns the span containing byte off: cum[i] <= off < cum[i+1].
func (p *viewPlan) spanAt(off int) int { return sort.SearchInts(p.cum, off+1) - 1 }

// walk calls fn with each contiguous run of the planned frame's bytes
// [lo,hi), in order.
func (p *viewPlan) walk(lo, hi int, fn func([]byte)) {
	for i, at := p.spanAt(lo), lo; at < hi; i++ {
		s := p.spans[i]
		off := at - p.cum[i]
		take := min(len(s)-off, hi-at)
		fn(s[off : off+take])
		at += take
	}
}

// crc returns the payload CRC of fragment frag of the planned frame split
// at mtu.
func (p *viewPlan) crc(frag, mtu int) uint32 {
	lo, hi := p.bounds(frag, mtu)
	var sum uint32
	p.walk(lo, hi, func(b []byte) { sum = crc32.Update(sum, crc32.IEEETable, b) })
	return sum
}

// packetLen is the framed length of fragment frag under header flags.
func (p *viewPlan) packetLen(flags byte, frag, mtu int) int {
	lo, hi := p.bounds(frag, mtu)
	return headerLen(flags) + hi - lo
}

// appendPacket appends fragment h.Frag of the planned frame split at mtu
// to dst, the payload gathered from the spans straight behind the header
// and sealed with crc, the fragment's payload CRC. It fills in h's tile
// and layer ids — those of the span the fragment STARTS in (none for the
// header and for an empty frame's one empty fragment), on the wire only
// under FlagTiled/FlagLayered. Every data packet — fresh, cached replay or
// NACK rebuild — is framed here.
func (p *viewPlan) appendPacket(dst []byte, h PacketHeader, mtu int, crc uint32) []byte {
	lo, hi := p.bounds(int(h.Frag), mtu)
	h.Tile, h.Layer = TileNone, LayerNone
	if lo < hi {
		i := p.spanAt(lo)
		h.Tile, h.Layer = p.tileOf[i], p.layerOf[i]
	}
	start := len(dst)
	dst = appendHeader(dst, h)
	body := len(dst)
	p.walk(lo, hi, func(b []byte) { dst = append(dst, b...) })
	return sealPacket(dst, start, body, crc)
}

// packet frames fragment h.Frag into a buffer of its own.
func (p *viewPlan) packet(h PacketHeader, mtu int, crc uint32) []byte {
	return p.appendPacket(make([]byte, 0, p.packetLen(h.Flags, int(h.Frag), mtu)), h, mtu, crc)
}

// frags is the planned frame's fragment count at mtu, refusing a frame a
// packet header's 16-bit count cannot number.
func (p *viewPlan) frags(mtu int) (int, error) {
	n := fragsAtMTU(p.total, mtu)
	if n > math.MaxUint16 {
		return 0, fmt.Errorf("%w: %d bytes at MTU %d", ErrFrameTooLarge, p.total, mtu)
	}
	return n, nil
}

// packets frames every fragment of the planned frame split at mtu, with
// consecutive sequence numbers from h.Seq, into one slab.
func (p *viewPlan) packets(h PacketHeader, mtu int) ([][]byte, error) {
	n, err := p.frags(mtu)
	if err != nil {
		return nil, err
	}
	first := h.Seq
	h.FragCount = uint16(n)
	out := make([][]byte, n)
	sl := slab{left: n*headerLen(h.Flags) + p.total}
	for i := range out {
		h.Frag, h.Seq = uint16(i), first+uint32(i)
		out[i] = p.appendPacket(sl.take(p.packetLen(h.Flags, i, mtu)), h, mtu, p.crc(i, mtu))
	}
	return out, nil
}

// parityBody XORs one parity group's [len16 || payload] records, cut from
// the planned frame at mtu, into a fresh body as wide as the widest member.
func (p *viewPlan) parityBody(g groupSpec, mtu int) []byte {
	width := 0
	for i := 0; i < g.count; i++ {
		lo, hi := p.bounds(g.base+i*g.stride, mtu)
		width = max(width, hi-lo)
	}
	body := make([]byte, 2+width)
	for i := 0; i < g.count; i++ {
		lo, hi := p.bounds(g.base+i*g.stride, mtu)
		xorLen(body, hi-lo)
		at := 2
		p.walk(lo, hi, func(b []byte) {
			xorBytes(body[at:], b)
			at += len(b)
		})
	}
	return body
}

// view is one send's drop decision: the tiles omitted or sent geometry-
// only and the layers kept (0 = all). The zero view ships the frame whole.
type view struct {
	omit, coarse uint64
	layers       uint8
}

// plan resolves a view of f to the spans it ships and the flags its data
// packets carry. Pure in (f, v), which is what makes a NACK rebuild from a
// recorded view byte-identical to the original send.
func (f *sharedFrame) plan(v view) (*viewPlan, byte) {
	if v == (view{}) {
		return f.ident, 0
	}
	var flags byte
	if len(f.layout.Tiles) > 0 {
		flags |= FlagTiled
	}
	if v.layers != 0 {
		flags |= FlagLayered
	}
	return buildViewPlan(f.layout, f.p.wire, v.omit, v.coarse, v.layers), flags
}

// frameCut is a frame as every send of one (view, MTU) ships it, less the
// per-receiver header fields: the plan and its flags, the fragment count,
// each fragment's payload CRC (the CRC covers the payload only, so it is
// the same for every receiver), the parity groups at the frame's
// publish-time group size and their XOR bodies, and the framed bytes of
// one send. Immutable once built.
type frameCut struct {
	view   view
	mtu    int
	plan   *viewPlan
	flags  byte
	n      int   // fragments
	err    error // ErrFrameTooLarge; nothing below n is set
	crcs   []uint32
	groups []groupSpec
	bodies [][]byte
	bytes  int // data and parity packets of one send, headers included
}

// buildCut cuts f under view v at mtu. Pure in (f, v, mtu), like plan.
func (f *sharedFrame) buildCut(v view, mtu int) *frameCut {
	c := &frameCut{view: v, mtu: mtu}
	c.plan, c.flags = f.plan(v)
	if c.n, c.err = c.plan.frags(mtu); c.err != nil {
		return c
	}
	c.crcs = make([]uint32, c.n)
	for i := range c.crcs {
		c.crcs[i] = c.plan.crc(i, mtu)
	}
	c.groups = parityGroups(c.n, f.k, f.ftype)
	c.bodies = make([][]byte, len(c.groups))
	c.bytes = c.n*headerLen(c.flags) + c.plan.total
	for i, g := range c.groups {
		c.bodies[i] = c.plan.parityBody(g, mtu)
		c.bytes += parityPacketLen(c.bodies[i])
	}
	return c
}

// cut returns the frame's cut of (v, mtu): the memoised one, else one built
// and memoised into the first free slot. No caller ever waits on another's
// build: two senders that race on one key may both build, one
// CompareAndSwap wins, and both return the winner. Past maxCuts distinct
// keys, or without a memo, the cut is built for this send alone.
func (lf liveFrame) cut(v view, mtu int) *frameCut {
	f, m := lf.f, lf.cuts
	if m == nil {
		return f.buildCut(v, mtu)
	}
	var built *frameCut
	for i := range m {
		c := m[i].Load()
		if c == nil {
			if built == nil {
				built = f.buildCut(v, mtu)
			}
			if m[i].CompareAndSwap(nil, built) {
				return built
			}
			c = m[i].Load()
		}
		if c.view == v && c.mtu == mtu {
			return c
		}
	}
	if built == nil {
		built = f.buildCut(v, mtu)
	}
	return built
}

// slabChunk caps one allocation of a send's packet slab (a single packet
// wider than it gets a chunk of its own size).
const slabChunk = 64 << 10

// slab hands out one send's packets as capacity-capped windows of a few
// large chunks, each at most slabChunk bytes and no larger than what the
// send still has to frame: one allocation per send instead of one per
// packet. A window is its packet's for good — PacketOut owns it, and the
// sender never writes it again — so chunks are never reused.
type slab struct {
	buf  []byte
	left int // bytes the send has still to frame
}

// take returns an empty window with room for exactly size bytes.
func (s *slab) take(size int) []byte {
	if len(s.buf) < size {
		s.buf = make([]byte, max(min(s.left, slabChunk), size))
	}
	pkt := s.buf[:0:size]
	s.buf, s.left = s.buf[size:], s.left-size
	return pkt
}

// sentRec records one sent frame's place in the sender's sequence space:
// enough to rebuild any of its fragments from the retransmit cache.
type sentRec struct {
	firstSeq uint32 // sequence number of fragment 0
	n        uint16 // fragment count
	frameSeq uint64 // publish sequence (retransmit-cache key)
	frameIdx uint32 // frame index on the wire
	ftype    codec.FrameType
	cached   bool // replayed join keyframe (FlagCached on rebuild)
	view     view // as sent, whatever the camera or subscription did since
}

// senderStats is a sender's counters, folded into the owner's metrics.
type senderStats struct {
	packets     int64 // data packets sent
	parity      int64 // parity packets sent
	wireBytes   int64 // bytes of both, headers included
	nacks       int64 // NACK messages handled
	retransmits int64
	retxMisses  int64
	fbReports   int64 // feedback reports accepted
	fbStale     int64 // feedback reports rejected as duplicate or reordered
	buffered    int   // packet span the sent-records cover
}

// sender is one viewer's packet stream. send runs on the viewer's send
// loop; handleNACK and acceptFeedback are safe from any goroutine,
// including re-entrantly from inside out — no lock is ever held across it.
type sender struct {
	ctx    context.Context
	id     uint32         // stream id on every packet
	mtu    int            // payload bytes per packet, clamped by the owner
	budget int            // packet span the sent-records may cover (newest frame aside)
	out    PacketSendFunc // nil: build and account without sending
	cache  *retxCache     // where NACKed frames' payloads are found
	// answered, when set, tells the owner each NACKed packet's outcome —
	// rebuilt or missed — for counters wider than one sender (a shard's).
	answered func(hit bool)

	pktSeq uint32 // next sequence number; touched only by send

	mu sync.Mutex
	// records is the sent-record FIFO, ordered by firstSeq in the modular
	// uint32 sequence space (pktSeq wraps), bounded so the covered packet
	// span stays <= budget — which keeps modular lookups unambiguous.
	records    []sentRec
	lastReport uint32 // highest feedback report number accepted
	stats      senderStats
}

// send packetizes one frame under view vw as frame index idx and emits it,
// each packet framed as its turn comes: data packets in sequence order,
// each parity group's packet right after the group's last covered fragment
// — so a repair trails the loss it fixes by at most a group's worth of
// packet-times, well inside the receiver's NACK timer. Everything but the
// per-receiver header fields comes from the frame's cut of (vw, MTU) —
// plan, payload CRCs, parity bodies cut from the same plan, so parity
// protects exactly the bytes sent — and every packet is framed into the
// send's slab. Parity takes no sequence numbers and no sent-record, and
// never carries FlagTiled or FlagLayered (it covers framed payloads, not
// tile bytes). Returns the packet bytes put on the wire (headers and
// parity included) and the frame bytes they carry, for the owner's
// accounting.
func (s *sender) send(lf liveFrame, idx uint32, vw view) (wire int64, shipped int, err error) {
	f, c := lf.f, lf.cut(vw, s.mtu)
	if c.err != nil {
		return 0, 0, c.err
	}
	n := c.n
	first := s.pktSeq
	// Record before the first emission: a receiver NACKing from inside the
	// delivery chain (re-entrant handleNACK) must find the frame.
	s.record(sentRec{
		firstSeq: first,
		n:        uint16(n),
		frameSeq: f.seq,
		frameIdx: idx,
		ftype:    f.ftype,
		cached:   f.cached,
		view:     vw,
	})
	s.pktSeq = first + uint32(n)
	emit := func(pkt []byte) error {
		wire += int64(len(pkt))
		if s.out == nil {
			return nil
		}
		return s.out(s.ctx, pkt)
	}
	h := PacketHeader{
		Flags:      c.flags,
		StreamID:   s.id,
		FrameIndex: idx,
		FrameType:  f.ftype,
		FragCount:  uint16(n),
	}
	if f.cached {
		h.Flags |= FlagCached
	}
	sl := slab{left: c.bytes}
	gi := 0
	for i := 0; i < n; i++ {
		h.Frag, h.Seq = uint16(i), first+uint32(i)
		pkt := c.plan.appendPacket(sl.take(c.plan.packetLen(h.Flags, i, s.mtu)), h, s.mtu, c.crcs[i])
		if err := emit(pkt); err != nil {
			return 0, 0, err
		}
		for ; gi < len(c.groups) && c.groups[gi].end() <= i; gi++ {
			body := c.bodies[gi]
			pkt := appendParityPacket(sl.take(parityPacketLen(body)), s.id, idx, f.ftype, first, n, c.groups[gi], body)
			if err := emit(pkt); err != nil {
				return 0, 0, err
			}
		}
	}
	s.mu.Lock()
	s.stats.packets += int64(n)
	s.stats.parity += int64(gi)
	s.stats.wireBytes += wire
	s.mu.Unlock()
	return wire, c.plan.total, nil
}

// record appends one frame's sent-record, evicting the oldest records once
// the covered packet span would exceed the budget. Like the retransmit
// cache, it keeps the newest frame even when that alone is wider.
func (s *sender) record(rec sentRec) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := int(rec.n)
	for s.stats.buffered+n > s.budget && len(s.records) > 0 {
		s.stats.buffered -= int(s.records[0].n)
		s.records = s.records[1:]
	}
	s.records = append(s.records, rec)
	s.stats.buffered += n
}

// findRecLocked locates the sent-record covering seq. Records are ordered
// by firstSeq in the modular sequence space, and the span they cover is
// bounded by the budget (far below 2^31), so binary searching on the offset
// from the oldest record stays correct across uint32 wraparound; sequences
// outside the window wrap to huge offsets and miss cleanly. Caller holds
// s.mu.
func (s *sender) findRecLocked(seq uint32) (sentRec, bool) {
	if len(s.records) == 0 {
		return sentRec{}, false
	}
	base := s.records[0].firstSeq
	want := seq - base
	lo, hi := 0, len(s.records)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.records[mid].firstSeq-base <= want {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	rec := s.records[lo-1]
	if seq-rec.firstSeq >= uint32(rec.n) {
		return sentRec{}, false
	}
	return rec, true
}

// rebuild re-frames one NACKed packet — the original plus FlagRetransmit —
// from the frame, view and fragment its sent-record names: the plan and
// the one fragment's CRC, both pure in (frame, view), never the cut, which
// the retransmit cache does not hold. Returns nil (a counted miss) when the
// record or the cached frame has been evicted.
func (s *sender) rebuild(seq uint32) []byte {
	s.mu.Lock()
	rec, ok := s.findRecLocked(seq)
	s.mu.Unlock()
	var f *sharedFrame
	if ok {
		f = s.cache.get(rec.frameSeq)
	}
	if s.answered != nil {
		s.answered(f != nil)
	}
	s.mu.Lock()
	if f != nil {
		s.stats.retransmits++
	} else {
		s.stats.retxMisses++
	}
	s.mu.Unlock()
	if f == nil {
		return nil
	}
	h := PacketHeader{
		Flags:      FlagRetransmit,
		StreamID:   s.id,
		FrameIndex: rec.frameIdx,
		FrameType:  rec.ftype,
		Frag:       uint16(seq - rec.firstSeq),
		FragCount:  rec.n,
		Seq:        seq,
	}
	if rec.cached {
		h.Flags |= FlagCached
	}
	plan, flags := f.plan(rec.view)
	h.Flags |= flags
	return plan.packet(h, s.mtu, plan.crc(int(h.Frag), s.mtu))
}

// handleNACK answers one NACK message: every listed sequence number still
// answerable is rebuilt and re-sent through out. Duplicates within one
// message (a receiver retry race, or a hostile message) coalesce to one
// retransmit; unanswerable ones are counted and ignored — the receiver's
// retry budget will conceal or skip.
func (s *sender) handleNACK(seqs []uint32) error {
	s.mu.Lock()
	s.stats.nacks++
	s.mu.Unlock()
	var seen map[uint32]struct{}
	if len(seqs) > 1 {
		seen = make(map[uint32]struct{}, len(seqs))
	}
	for _, seq := range seqs {
		if seen != nil {
			if _, dup := seen[seq]; dup {
				continue
			}
			seen[seq] = struct{}{}
		}
		pkt := s.rebuild(seq)
		if pkt == nil || s.out == nil {
			continue
		}
		if err := s.out(s.ctx, pkt); err != nil {
			return err
		}
	}
	return nil
}

// acceptFeedback is the stale-report check: a report counts only when its
// number is non-zero and above every one accepted before, so a duplicated
// or reordered report can never double-steer what the owner steers with it.
func (s *sender) acceptFeedback(report uint32) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if report == 0 || report <= s.lastReport {
		s.stats.fbStale++
		return false
	}
	s.lastReport = report
	s.stats.fbReports++
	return true
}

// snapshot copies the counters.
func (s *sender) snapshot() senderStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// stop frees the sent-records once the sending goroutine has exited: no
// further NACK is answerable.
func (s *sender) stop() {
	s.mu.Lock()
	s.records = nil
	s.stats.buffered = 0
	s.mu.Unlock()
}
