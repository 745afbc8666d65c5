package stream

// Published frames: immutable, reference-counted payloads; the relay
// tree's trunk, a ring of them; and the packet-budgeted retransmit cache
// every sender's NACKs are answered from.
//
// The encode pipeline publishes each frame's wire bytes exactly once into
// a ring slot; S shard workers each keep a cursor into the ring and fan
// the frame out to their own viewer partition. Payload buffers are pooled
// and recycled by reference count, so the steady-state fan-out allocates
// one payload copy per frame regardless of the viewer count — and a slot
// is never overwritten until every shard's cursor has moved past it, so a
// published payload is frozen for as long as anything can read it (the
// checksum taken at publish time makes that invariant testable).
//
// Reference-count ownership:
//
//   - the ring slot itself holds one reference (dropped on overwrite or
//     at ring teardown);
//   - the server's keyframe cache holds one for the latest I-frame;
//   - every viewer queue entry holds one (dropped after send or shed);
//   - every retransmit-cache entry (a shard's, or a Session's) holds one
//     (dropped on eviction, and for a shard's at teardown; a Session's
//     outlive Close, when its stream's tail is still being NACKed).
//
// The payload bytes are returned to the pool only when the last holder
// releases, so a slow viewer mid-send can never observe a recycled buffer.

import (
	"hash/crc32"
	"sync"
	"sync/atomic"

	"repro/internal/codec"
)

// framePayload is one frame's published wire bytes plus its lifetime.
type framePayload struct {
	wire []byte
	// sum is the CRC-32 of wire taken at publish time. The bytes are
	// immutable from publish to final release; tests (and debug asserts)
	// recompute the checksum to prove no holder ever saw a mutation.
	sum  uint32
	refs atomic.Int32
}

// payloadPool recycles payload backing arrays between frames.
var payloadPool = sync.Pool{New: func() any { return new([]byte) }}

// newFramePayload copies wire into a pooled buffer with one reference.
func newFramePayload(wire []byte) *framePayload {
	bp := payloadPool.Get().(*[]byte)
	p := &framePayload{wire: append((*bp)[:0], wire...)}
	p.sum = crc32.ChecksumIEEE(p.wire)
	p.refs.Store(1)
	return p
}

// retain adds one reference. The caller must already hold one.
func (p *framePayload) retain() { p.refs.Add(1) }

// release drops one reference; the last release recycles the buffer.
func (p *framePayload) release() {
	if p.refs.Add(-1) == 0 {
		buf := p.wire[:0]
		p.wire = nil
		payloadPool.Put(&buf)
	}
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
// payload plus routing metadata. The cached-replay copy handed to a late
// joiner is a distinct sharedFrame sharing the same payload.
type sharedFrame struct {
	seq    uint64 // ring publish sequence (relay order; dense)
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
	// cuts memoises the frame's cuts (cut): the first sender of a
	// (view, MTU) builds its cut, every later one reads it. It is dropped
	// (nil) once no fresh send of the frame is left (unsent), so cut
	// memory lives only while some viewer still has the frame to send; a
	// NACK answer never reads it. Nil from the start on a late joiner's
	// replay copy, which exactly one viewer sends.
	cuts atomic.Pointer[cutMemo]
	// pending counts shards that have not yet finished relaying this
	// frame; the last decrement marks the frame fully fanned out.
	pending atomic.Int32
	// unsent counts what may still send the frame fresh: each shard still
	// relaying it and each viewer queue entry holding it. The last
	// decrement (sent) drops the cuts.
	unsent atomic.Int32
}

// newSharedFrame publishes one frame's wire bytes: the single copy into a
// refcounted payload (one reference, the caller's), its identity plan, and
// the identity cut at mtu — plan, fragment CRCs and, when the parity group
// size k says so, the parity bodies — which every whole-frame send at that
// MTU reads.
func newSharedFrame(index int, ftype codec.FrameType, wire []byte, mtu, k int) *sharedFrame {
	f := &sharedFrame{index: index, ftype: ftype, p: newFramePayload(wire), k: k}
	f.ident = identityPlan(f.p.wire)
	m := new(cutMemo)
	m[0].Store(f.buildCut(view{}, mtu))
	f.cuts.Store(m)
	return f
}

// sent drops one of the frame's unsent holds: a shard done relaying it, or
// a viewer queue entry sent or shed. The last one drops the cuts.
func (f *sharedFrame) sent() {
	if f.unsent.Add(-1) == 0 {
		f.cuts.Store(nil)
	}
}

// frameRing is the bounded publish ring. All methods are safe for
// concurrent use; publish blocks only when a shard is a full ring behind
// (shard workers never block on viewers, so in practice it never waits).
type frameRing struct {
	mu      sync.Mutex
	cond    *sync.Cond // signalled on cursor advance, close, and cancel
	slots   []*sharedFrame
	head    uint64   // frames published; next publish seq
	cursors []uint64 // per-shard consumed count (cursors[i] <= head)
	closed  bool     // no further publishes; workers drain then exit
	stopped bool     // canceled: workers abandon unconsumed frames
}

func newFrameRing(capacity, shards int) *frameRing {
	if capacity < 2 {
		capacity = 2
	}
	r := &frameRing{
		slots:   make([]*sharedFrame, capacity),
		cursors: make([]uint64, shards),
	}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// publish stores f at the next sequence, waiting (only) while the slot it
// replaces is still unconsumed by some shard. Returns false after cancel.
func (r *frameRing) publish(f *sharedFrame) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if r.stopped || r.closed {
			return false
		}
		if r.head < uint64(len(r.slots))+r.minCursorLocked() {
			break
		}
		r.cond.Wait()
	}
	i := r.head % uint64(len(r.slots))
	if old := r.slots[i]; old != nil {
		old.p.release() // slot reference; all shards are past it
	}
	f.seq = r.head
	r.slots[i] = f
	r.head++
	r.cond.Broadcast() // wake shard workers waiting in waitNext
	return true
}

func (r *frameRing) minCursorLocked() uint64 {
	mn := r.cursors[0]
	for _, c := range r.cursors[1:] {
		if c < mn {
			mn = c
		}
	}
	return mn
}

// waitNext blocks until the given shard's cursor has a frame to relay and
// returns it without advancing the cursor. ok is false once no further
// frame will ever appear (closed-and-drained, or canceled).
func (r *frameRing) waitNext(shard int) (f *sharedFrame, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if r.stopped {
			return nil, false
		}
		if cur := r.cursors[shard]; cur < r.head {
			return r.slots[cur%uint64(len(r.slots))], true
		}
		if r.closed {
			return nil, false
		}
		r.cond.Wait()
	}
}

// advance moves the shard's cursor past the frame next returned, waking
// any publisher waiting on the slot.
func (r *frameRing) advance(shard int) {
	r.mu.Lock()
	r.cursors[shard]++
	r.cond.Broadcast()
	r.mu.Unlock()
}

// published returns the number of frames published so far.
func (r *frameRing) published() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.head
}

// close marks the producer side finished; workers drain the remainder.
func (r *frameRing) close() {
	r.mu.Lock()
	r.closed = true
	r.cond.Broadcast()
	r.mu.Unlock()
}

// cancel aborts: publishers unblock, workers abandon unconsumed frames.
func (r *frameRing) cancel() {
	r.mu.Lock()
	r.stopped = true
	r.cond.Broadcast()
	r.mu.Unlock()
}

// drain releases every slot reference at teardown (after workers exited).
func (r *frameRing) drain() {
	r.mu.Lock()
	for i, f := range r.slots {
		if f != nil {
			f.p.release()
			r.slots[i] = nil
		}
	}
	r.mu.Unlock()
}

// retxCache is a sender-side retransmit cache: the most recent published
// frames, by publish sequence, FIFO-evicted once they cover more than a
// packet budget. It holds each frame once, by reference, however many
// senders sent it; a NACK rebuilds the requested fragment from the cached
// payload on demand. A relay shard owns one for its viewer partition, a
// Session one for its single receiver. All methods are safe for concurrent
// use.
type retxCache struct {
	budget  int                         // packets; the newest frame is kept even when wider
	mtu     int                         // the MTU the budget is accounted at
	resized func(frames, packets int64) // optional occupancy gauge

	mu     sync.Mutex
	frames map[uint64]*sharedFrame
	fifo   []uint64
	pkts   int
}

func newRetxCache(budget, mtu int, resized func(frames, packets int64)) *retxCache {
	if resized == nil {
		resized = func(int64, int64) {}
	}
	return &retxCache{budget: budget, mtu: mtu, resized: resized, frames: make(map[uint64]*sharedFrame)}
}

// add retains f, evicting oldest frames once the packet budget overflows.
// A frame already cached under its sequence (the late-join keyframe path)
// is left alone.
func (c *retxCache) add(f *sharedFrame) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.frames[f.seq]; ok {
		return
	}
	f.p.retain()
	c.frames[f.seq] = f
	c.fifo = append(c.fifo, f.seq)
	c.pkts += fragsAtMTU(len(f.p.wire), c.mtu)
	for c.pkts > c.budget && len(c.fifo) > 1 {
		old := c.frames[c.fifo[0]]
		delete(c.frames, c.fifo[0])
		c.fifo = c.fifo[1:]
		c.pkts -= fragsAtMTU(len(old.p.wire), c.mtu)
		old.p.release()
	}
	c.resized(int64(len(c.fifo)), int64(c.pkts))
}

// get retrieves a cached frame by publish sequence, retained for the
// caller (who must release it after rebuilding the packet); nil once the
// frame has been evicted.
func (c *retxCache) get(seq uint64) *sharedFrame {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := c.frames[seq]
	if f != nil {
		f.p.retain()
	}
	return f
}

// drain releases every reference at teardown.
func (c *retxCache) drain() {
	c.mu.Lock()
	for _, f := range c.frames {
		f.p.release()
	}
	c.frames = map[uint64]*sharedFrame{}
	c.fifo = nil
	c.pkts = 0
	c.mu.Unlock()
	c.resized(0, 0)
}
