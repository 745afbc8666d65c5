package stream

// Published frames: immutable payloads; the value the relay path carries
// them in, which alone holds a frame's cut memo; and the packet-budgeted
// retransmit cache every sender's NACKs are answered from.
//
// The encode pipeline copies each frame's wire bytes exactly once, into a
// payload nothing writes again, and sends the frame to each of the S relay
// shards over a bounded channel (ringFrames deep); each shard fans it out
// to its own viewer partition. The steady-state fan-out allocates one
// payload copy per frame regardless of the viewer count, and the checksum
// taken at publish time makes the payload's immutability testable.
//
// A frame lives while something references it, and the garbage collector
// frees it after the last:
//
//   - a shard channel, until the shard worker receives it;
//   - a viewer queue entry, until it is sent or shed;
//   - a shard's retransmit cache, until evicted — it outlives Close, when
//     the stream's tail is still NACKed;
//   - the server's keyframe cache, until the next I-frame or teardown;
//   - a NACK answer, while it rebuilds a packet.
//
// Only the first two reach the cut memo (liveFrame), so the memo becomes
// garbage once the frame's last queue entry is sent or shed.

import (
	"hash/crc32"
	"sync"
	"sync/atomic"

	"repro/internal/codec"
)

// framePayload is one frame's published wire bytes.
type framePayload struct {
	wire []byte
	// sum is the CRC-32 of wire taken at publish time. The bytes are
	// immutable once published; tests recompute the checksum to prove no
	// holder ever saw a mutation.
	sum uint32
}

// newFramePayload copies wire, the publisher's recycled buffer.
func newFramePayload(wire []byte) *framePayload {
	p := &framePayload{wire: append([]byte(nil), wire...)}
	p.sum = crc32.ChecksumIEEE(p.wire)
	return p
}

// frozen reports whether the payload still matches its publish checksum.
func (p *framePayload) frozen() bool { return crc32.ChecksumIEEE(p.wire) == p.sum }

// maxCuts is how many (view, MTU) cuts one published frame memoises. The
// measured traffic asks for 4 (fanout-1k's four viewer kinds; live-lossy
// has two); 16 is that with room for a dozen more cameras, a workload no
// benchmark measures. A send under a further distinct view builds its cut
// and drops it after the send.
const maxCuts = 16

// cutMemo is a frame's memoised cuts, filled in order, each slot written
// once by CompareAndSwap.
type cutMemo [maxCuts]atomic.Pointer[frameCut]

// sharedFrame is one encoded frame as the relay tree sees it: an immutable
// payload plus routing metadata, none of it written after publish but
// pending. The cached-replay copy handed to a late joiner is a distinct
// sharedFrame sharing the same payload.
type sharedFrame struct {
	seq    uint64 // publish sequence (relay order; dense)
	index  int    // shared-pipeline frame index (viewers renumber locally)
	ftype  codec.FrameType
	cached bool // replayed from the keyframe cache (late join)
	p      *framePayload
	// layout is the tiled container's parsed layout (nil for untiled
	// frames): the map shard viewers use to slice per-tile payload spans
	// out of p.wire without copying. Parsed once at publish.
	layout *codec.FrameLayout
	// ident is the frame's identity plan — p.wire as one span — built once
	// at publish and shared read-only by every cut that ships the frame
	// whole.
	ident *viewPlan
	// k is the parity group size the frame was published with: every cut
	// lays out its parity groups at it (0 when FEC is off, and on
	// cached-join replays — a late joiner's keyframe is NACK-repairable).
	k int
	// pending counts shards that have not yet finished relaying this
	// frame; the last decrement marks the frame fully fanned out.
	pending atomic.Int32
}

// liveFrame is a frame on its way to fresh sends: what a shard channel and
// a viewer queue entry carry, and what a send reads. cuts memoises the
// frame's cuts (cut): the first sender of a (view, MTU) builds its cut,
// every later one reads it. Nothing else holds the memo, so it is garbage
// once no fresh send of the frame is left; a NACK answer never reads it.
// Nil on a late joiner's replay copy, which exactly one viewer sends.
type liveFrame struct {
	f    *sharedFrame
	cuts *cutMemo
}

// newLiveFrame publishes one frame's wire bytes: the single copy into an
// immutable payload, its identity plan, and the identity cut at mtu — plan,
// fragment CRCs and, when the parity group size k says so, the parity
// bodies — which every whole-frame send at that MTU reads.
func newLiveFrame(index int, ftype codec.FrameType, wire []byte, mtu, k int) liveFrame {
	f := &sharedFrame{index: index, ftype: ftype, p: newFramePayload(wire), k: k}
	f.ident = identityPlan(f.p.wire)
	m := new(cutMemo)
	m[0].Store(f.buildCut(view{}, mtu))
	return liveFrame{f, m}
}

// retxCache is a sender-side retransmit cache: the most recent published
// frames, by publish sequence, FIFO-evicted once they cover more than a
// packet budget. It holds each frame once, by reference, however many
// senders sent it, and never its cut memo; a NACK rebuilds the requested
// fragment from the cached payload on demand. A relay shard owns one for
// its viewer partition. All methods are safe for concurrent use.
type retxCache struct {
	budget  int                         // packets; the newest frame is kept even when wider
	mtu     int                         // the MTU the budget is accounted at
	resized func(frames, packets int64) // occupancy gauge

	mu     sync.Mutex
	frames map[uint64]*sharedFrame
	fifo   []uint64
	pkts   int
}

func newRetxCache(budget, mtu int, resized func(frames, packets int64)) *retxCache {
	return &retxCache{budget: budget, mtu: mtu, resized: resized, frames: make(map[uint64]*sharedFrame)}
}

// add caches f, evicting oldest frames once the packet budget overflows.
// A frame already cached under its sequence (the late-join keyframe path)
// is left alone.
func (c *retxCache) add(f *sharedFrame) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.frames[f.seq]; ok {
		return
	}
	c.frames[f.seq] = f
	c.fifo = append(c.fifo, f.seq)
	c.pkts += fragsAtMTU(len(f.p.wire), c.mtu)
	for c.pkts > c.budget && len(c.fifo) > 1 {
		old := c.frames[c.fifo[0]]
		delete(c.frames, c.fifo[0])
		c.fifo = c.fifo[1:]
		c.pkts -= fragsAtMTU(len(old.p.wire), c.mtu)
	}
	c.resized(int64(len(c.fifo)), int64(c.pkts))
}

// get retrieves a cached frame by publish sequence; nil once the frame has
// been evicted.
func (c *retxCache) get(seq uint64) *sharedFrame {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.frames[seq]
}
