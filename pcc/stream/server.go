package stream

// Server is the encode-once fan-out, restructured as a two-level relay
// tree so one process serves 10k+ viewers: one capture feed drives a
// single shared encode pipeline (a Session with its overlapped encode
// phases and scratch-arena hot path), the pipeline publishes each frame's wire
// bytes exactly once into an immutable refcounted frame ring, and S
// relay shards (default one per core) each fan the ring out to their own
// partition of viewers. N viewers cost ONE encode and ONE payload copy
// per frame; the encode goroutine's fan-out work is O(1) in the viewer
// count (a ring publish), and the O(N) per-viewer work spreads across
// the shard workers.
//
//	capture ─▶ [shared Session: geometry ∥ attr ∥ packetize ∥ transmit]
//	                            │ FrameOut (one encode per frame)
//	                      [frame ring]  immutable, refcounted
//	              ┌─────────────┼──────────────┐
//	          shard 0        shard 1   …   shard S-1     one worker each:
//	        retx cache      retx cache     retx cache    relay, NACK cache,
//	        loss table      loss table     loss table    refresh coalesce,
//	        ┌───┼───┐       ┌──┼──┐        ┌──┼──┐       feedback reduce
//	       V0  VS  V2S …   V1 … …         … … …
//	      queue+seq per viewer; senders drain independently
//
// Viewer churn, NACK storms, and slow readers touch only their shard —
// never the encode goroutine. Feedback reduces viewer → shard loss table
// → worst-percentile signal before reaching the rate controller, and
// I-frame refresh requests coalesce twice (shard arm, then server arm)
// into at most one GOP restart.
//
// Keyframe cache: the server retains the last encoded I-frame's payload,
// so a late-joining viewer starts from a decodable keyframe immediately
// (packets marked FlagCached) instead of forcing a mid-GOP re-encode.
// Receiver-requested refreshes — and cacheless mid-stream joins — are
// coalesced into at most one GOP restart.
//
// Lock order: sv.mu > shard.mu > viewer.mu (see shard.go for the audit).

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/codec"
	"repro/internal/edgesim"
	"repro/internal/geom"
	"repro/internal/linksim"
	"repro/internal/metrics"
)

// ErrServerClosed reports an operation on a closed Server.
var ErrServerClosed = errors.New("stream: server closed")

// ServerConfig configures a Server. The zero value of every field is
// usable: paper-default codec options require only Options.Design; the
// per-viewer defaults mirror Session's.
type ServerConfig struct {
	// Options selects and configures the shared codec (as codec.OptionsFor).
	Options codec.Options
	// Mode selects the modelled edge board's power budget.
	Mode edgesim.PowerMode
	// Queue is the shared pipeline's per-stage queue capacity (default 4).
	Queue int
	// Shards is the relay-tree width: how many shard workers partition
	// the viewers (default runtime.NumCPU()). Viewer id % Shards picks
	// the owning shard, so every viewer maps to exactly one.
	Shards int
	// Link is the default per-viewer downlink (default linksim.WiFi); a
	// ViewerConfig.Link overrides it per viewer.
	Link linksim.Link
	// MTU is the default per-viewer packet payload size (default 1400).
	MTU int
	// ViewerQueue is the default per-viewer send-queue capacity in frames
	// (default 8).
	ViewerQueue int
	// RetransmitBuffer is the per-shard retransmit-cache budget in
	// packets (default 1024): each shard retains the most recent frames
	// covering that many packets — shared by every viewer in the
	// partition — and rebuilds NACKed fragments from them on demand. It
	// also caps the per-viewer span of answerable sequence numbers.
	RetransmitBuffer int
	// FEC configures parity emission for every viewer. The XOR bodies are
	// built once per published frame at the server MTU and shared; viewers
	// at other MTUs rebuild from the immutable ring payload.
	FEC FECConfig
}

func (c ServerConfig) normalized() ServerConfig {
	if c.Link.BandwidthMbps <= 0 {
		c.Link = linksim.WiFi
	}
	c.MTU = clampMTU(c.MTU, 64, 1400)
	if c.Shards < 1 {
		c.Shards = runtime.NumCPU()
	}
	if c.ViewerQueue < 1 {
		c.ViewerQueue = 8
	}
	if c.RetransmitBuffer < 1 {
		c.RetransmitBuffer = defaultRetransmitBuffer
	}
	return c
}

const (
	// ringFrames is the frame ring's capacity in frames. The encode path
	// blocks only when a shard falls a full ring behind.
	ringFrames = 64
	// feedbackQuantile picks the per-viewer loss rate fed to the shared
	// congestion controller (Options.Adapt). The N reporting viewers'
	// losses are sorted ascending and the controller sees index
	// ⌈q·N⌉−1, the q-quantile: at N = 10 the second-worst loss. The worst
	// tenth resolves through its own queue shedding while fleet-wide loss
	// adapts the encode.
	feedbackQuantile = 0.9
)

// ServerMetrics is a point-in-time snapshot of the fan-out state.
type ServerMetrics struct {
	// FramesEncoded counts frames the shared pipeline encoded AND every
	// shard finished relaying — one per submitted frame, however many
	// viewers are attached.
	FramesEncoded int64
	// IFrames counts the keyframes among them (GOP opens plus restarts).
	IFrames int64
	// Refreshes counts GOP restarts actually applied by the encoder;
	// RefreshesCoalesced counts refresh requests absorbed by an
	// already-armed restart (at the shard or the server).
	Refreshes          int64
	RefreshesCoalesced int64
	// CachedJoins counts viewers whose first frame came from the keyframe
	// cache; KeyframeCached reports whether the cache currently holds one.
	CachedJoins    int64
	KeyframeCached bool
	// Viewers is the current attachment count; Shards the relay width.
	Viewers int
	Shards  int
	// Pipeline is the shared Session's snapshot (queues, device ledgers).
	Pipeline Metrics
	// PerShard lists every relay shard's counters, by shard index.
	PerShard []metrics.ShardSnapshot
	// PerViewer lists every attached viewer's snapshot, by StreamID.
	PerViewer []ViewerMetrics
}

// Server fans one encode out to N viewers through the relay tree. Create
// with NewServer, attach viewers with Attach (before or during the
// stream), feed frames with Submit, then Close to drain. All methods are
// safe for concurrent use.
type Server struct {
	cfg    ServerConfig
	sess   *Session
	done   chan struct{} // results collector finished
	ring   *frameRing
	shards []*shard

	nextID      atomic.Uint32
	relayed     atomic.Int64 // frames fully fanned out by every shard
	iFrames     atomic.Int64
	coalesced   atomic.Int64 // refresh requests absorbed (shard + server)
	cachedJoins atomic.Int64

	mu           sync.Mutex
	cache        *sharedFrame // latest I-frame, payload retained
	refreshArmed bool
	closed       bool
}

// NewServer starts the shared encode pipeline and the shard workers.
// Cancelling ctx aborts them.
func NewServer(ctx context.Context, cfg ServerConfig) *Server {
	cfg = cfg.normalized()
	sv := &Server{
		cfg:  cfg,
		done: make(chan struct{}),
		ring: newFrameRing(ringFrames, cfg.Shards),
	}
	sv.shards = make([]*shard, cfg.Shards)
	for i := range sv.shards {
		sv.shards[i] = newShard(sv, i)
	}
	sv.sess = New(ctx, Config{
		Options: cfg.Options,
		Mode:    cfg.Mode,
		Queue:   cfg.Queue,
		MTU:     cfg.MTU,
		// The shared pipeline never sheds frames; per-viewer queues are
		// where slowness resolves, in isolation.
		Policy:   Block,
		FrameOut: sv.publish,
	})
	for _, sh := range sv.shards {
		go sh.run()
	}
	// The session's Results channel must drain for the pipeline to flow;
	// the publish hook does the accounting, so the fates are discarded.
	go func() {
		defer close(sv.done)
		for range sv.sess.Results() {
		}
	}()
	return sv
}

// Options returns the shared encoder's normalized configuration (e.g. for
// building matching ReceiverConfigs).
func (sv *Server) Options() codec.Options { return sv.sess.Options() }

// Submit hands the shared pipeline the next captured frame. It blocks when
// the pipeline's ingest queue is full. Single producer, like
// Session.Submit.
func (sv *Server) Submit(ctx context.Context, vc *geom.VoxelCloud) error {
	return sv.sess.Submit(ctx, vc)
}

// publish is the shared session's FrameOut hook: copy the frame's wire
// bytes ONCE into a refcounted ring slot and refresh the keyframe cache.
// Runs on the transmit stage; its cost is O(1) in the viewer count — the
// shard workers do the O(N) fan-out.
func (sv *Server) publish(_ context.Context, seq int, ftype codec.FrameType, wire []byte) error {
	// The parity bodies are built once, here on the O(1) encode path, so
	// the O(N) viewer fan-out only copies them under per-viewer headers.
	f := newSharedFrame(seq, ftype, wire, sv.cfg.MTU, sv.cfg.FEC.groupLen(sv.sess.Controller()))
	// Parse the tile layout against the ring's own copy so every span a
	// viewer slices aliases the immutable published payload.
	f.layout = codec.ParseFrameLayout(f.p.wire)
	f.pending.Store(int32(len(sv.shards)))
	if !sv.ring.publish(f) {
		f.p.release() // canceled mid-publish; the session is aborting
		return nil
	}
	if ftype == codec.IFrame {
		f.p.retain() // cache reference
		sv.mu.Lock()
		old := sv.cache
		sv.cache = f
		sv.refreshArmed = false // the pending restart (if any) just landed
		sv.mu.Unlock()
		if old != nil {
			old.p.release()
		}
	}
	return nil
}

// frameRelayed is called by the last shard to finish fanning a frame out.
// The keyframe count moves first, so a reader that has seen FramesEncoded
// reach n also sees the IFrames of those n frames.
func (sv *Server) frameRelayed(f *sharedFrame) {
	if f.ftype == codec.IFrame {
		sv.iFrames.Add(1)
	}
	sv.relayed.Add(1)
}

// shardOf maps a viewer id to its owning shard — the partition function:
// deterministic, total, and one shard per id.
func (sv *Server) shardOf(id uint32) *shard {
	return sv.shards[int(id%uint32(len(sv.shards)))]
}

// Attach adds a viewer to its shard's partition and starts its sender.
// Zero ViewerConfig fields take the server's defaults here, once.
// When the keyframe cache holds an I-frame the viewer's stream opens with
// it (frame 0, packets marked FlagCached), so a mid-GOP join decodes
// immediately without a re-encode; a cacheless mid-stream join instead
// arms a (coalesced) I-frame restart and skips P-frames until the
// keyframe arrives. Only the owning shard's lock is taken — attaching
// never touches the encode path or the other partitions.
func (sv *Server) Attach(cfg ViewerConfig) (*Viewer, error) {
	if cfg.Link.BandwidthMbps <= 0 {
		cfg.Link = sv.cfg.Link
	}
	cfg.MTU = clampMTU(cfg.MTU, 64, sv.cfg.MTU)
	if cfg.Queue < 1 {
		cfg.Queue = sv.cfg.ViewerQueue
	}
	if cfg.RetransmitBuffer < 1 {
		cfg.RetransmitBuffer = sv.cfg.RetransmitBuffer
	}
	sv.mu.Lock()
	if sv.closed {
		sv.mu.Unlock()
		return nil, ErrServerClosed
	}
	var joinCache *sharedFrame
	if c := sv.cache; c != nil {
		c.p.retain() // creation reference, released by shard.attach
		joinCache = &sharedFrame{seq: c.seq, index: c.index, ftype: c.ftype, cached: true, p: c.p, layout: c.layout, ident: c.ident}
	}
	sv.mu.Unlock()

	v := newViewer(sv, cfg, joinCache)
	var sh *shard
	for {
		id := cfg.StreamID
		if id == 0 {
			id = sv.nextID.Add(1)
			if id == 0 { // wrapped
				continue
			}
		}
		sh = sv.shardOf(id)
		// Set before the viewer becomes reachable through the shard (whose
		// lock publishes them): control messages route by id from then on.
		v.id, v.shard = id, sh
		v.tx.id, v.tx.cache, v.tx.answered = id, sh.retx, sh.noteRetx
		if sh.attach(v) {
			break
		}
		if cfg.StreamID != 0 {
			if joinCache != nil {
				joinCache.p.release()
			}
			return nil, fmt.Errorf("stream: viewer id %d already attached", cfg.StreamID)
		}
		// Server-assigned id collided with an explicitly chosen one: skip.
	}

	// Re-check closed: Close snapshots the partitions after setting the
	// flag, so a viewer inserted later must tear itself down. The sender
	// goroutine was never started, so close v.done here — shutdown (ours,
	// or a racing Close's that snapshotted this viewer) waits on it and
	// would otherwise block forever on a sendLoop that will never run.
	sv.mu.Lock()
	closed := sv.closed
	sv.mu.Unlock()
	if closed {
		sh.detach(v)
		close(v.done)
		v.shutdown(true)
		// The flag is set only after the shard workers exit, so the retx
		// reference attach just took (the join keyframe) may have landed
		// after the closing side's drain; drain again to drop it.
		sh.retx.drain()
		return nil, ErrServerClosed
	}

	needRestart := joinCache == nil && sv.ring.published() > 0
	if joinCache != nil {
		sv.cachedJoins.Add(1)
	}
	if needRestart {
		// Mid-stream join with an empty cache (nothing but P-frames so
		// far would be unusual, but possible after a server restart):
		// fall back to a coalesced GOP restart.
		sh.requestRefresh()
	}
	go v.sendLoop()
	return v, nil
}

// Detach removes a viewer from its shard: its queue is abandoned, its
// sender stops, and its retransmit records are freed. Counters stay
// readable via the returned Viewer's Metrics. Detaching an unknown (or
// already detached) viewer is a no-op.
func (sv *Server) Detach(v *Viewer) {
	if v.shard == nil || !v.shard.detach(v) {
		return
	}
	v.shutdown(true)
}

// HandleControl routes a receiver→sender control message to the viewer
// that owns its stream id (e.g. from a shared control socket), through
// the owning shard. Messages for unknown stream ids — a viewer that just
// detached — are dropped.
func (sv *Server) HandleControl(c Control) error {
	v := sv.shardOf(c.StreamID).lookup(c.StreamID)
	if v == nil {
		return nil
	}
	return v.HandleControl(c)
}

// reduceFeedback is the root of the feedback reduction tree: after one
// viewer's report lands in its shard's loss table, reduce the S shard
// tables to the feedbackQuantile of the per-viewer losses and feed the
// shared controller. Per-viewer queues already isolate one congested
// viewer; the shared encode only reacts when that quantile sees loss, so
// the controller tracks sustained fleet-wide congestion, not a single
// outlier. No viewer lock is taken: the reduction reads S shard tables,
// not N viewers.
func (sv *Server) reduceFeedback() {
	ctrl := sv.sess.Controller()
	if ctrl == nil {
		return
	}
	losses := make([]float64, 0, 64)
	for _, sh := range sv.shards {
		losses = sh.appendLosses(losses)
	}
	if len(losses) == 0 {
		return
	}
	sort.Float64s(losses)
	idx := int(math.Ceil(feedbackQuantile*float64(len(losses)))) - 1
	if idx < 0 {
		idx = 0
	}
	ctrl.ObserveFeedback(losses[idx])
}

// Controller returns the shared pipeline's congestion controller, nil
// unless Options.Adapt is enabled.
func (sv *Server) Controller() *codec.Controller { return sv.sess.Controller() }

// noteCoalescedRefresh counts a refresh request absorbed by a shard's
// already-armed restart.
func (sv *Server) noteCoalescedRefresh() { sv.coalesced.Add(1) }

// requestIFrame arms one coalesced GOP restart at the server level: the
// first caller forces the encoder, every caller before the next I-frame
// lands rides along.
func (sv *Server) requestIFrame() {
	sv.mu.Lock()
	if sv.closed {
		sv.mu.Unlock()
		return
	}
	armed := sv.refreshArmed
	sv.refreshArmed = true
	sv.mu.Unlock()
	if armed {
		sv.coalesced.Add(1)
		return
	}
	// ControlRefresh never touches PacketOut, so no error can surface.
	_ = sv.sess.HandleControl(Control{Kind: ControlRefresh})
}

// Metrics snapshots the server, the shared pipeline, every shard, and
// every attached viewer (sorted by stream id).
func (sv *Server) Metrics() ServerMetrics {
	sv.mu.Lock()
	cached := sv.cache != nil
	sv.mu.Unlock()
	m := ServerMetrics{
		FramesEncoded:      sv.relayed.Load(),
		IFrames:            sv.iFrames.Load(),
		RefreshesCoalesced: sv.coalesced.Load(),
		CachedJoins:        sv.cachedJoins.Load(),
		KeyframeCached:     cached,
		Shards:             len(sv.shards),
	}
	var vs []*Viewer
	for _, sh := range sv.shards {
		m.PerShard = append(m.PerShard, sh.stats.Snapshot())
		vs = append(vs, sh.snapshotViewers()...)
	}
	m.Viewers = len(vs)
	m.Pipeline = sv.sess.Metrics()
	m.Refreshes = m.Pipeline.Refreshes
	for _, v := range vs {
		m.PerViewer = append(m.PerViewer, v.Metrics())
	}
	sort.Slice(m.PerViewer, func(i, j int) bool {
		return m.PerViewer[i].StreamID < m.PerViewer[j].StreamID
	})
	return m
}

// Err returns the shared pipeline's first error, if any.
func (sv *Server) Err() error { return sv.sess.Err() }

// Close stops accepting frames, drains the shared pipeline (every frame
// reaches the ring), waits for every shard to finish relaying, then
// drains and stops every viewer's sender. Idempotent; returns the
// pipeline's close error. Attached viewers' counters stay readable
// afterwards.
func (sv *Server) Close() error {
	err := sv.sess.Close()
	<-sv.done
	sv.ring.close()
	for _, sh := range sv.shards {
		<-sh.done
	}
	sv.teardown(err != nil) // drain on a clean close, discard on abort
	return err
}

// teardown marks the server closed and, with the shard workers gone, stops
// every viewer and releases every cached payload reference — keyframe
// cache, shard retransmit caches, ring slots — so the buffers return to
// the pool. Idempotent: a Cancel racing a draining Close cuts it short.
func (sv *Server) teardown(discard bool) {
	sv.mu.Lock()
	sv.closed = true
	cache := sv.cache
	sv.cache = nil
	sv.mu.Unlock()
	for _, sh := range sv.shards {
		for _, v := range sh.snapshotViewers() {
			v.shutdown(discard)
		}
		sh.retx.drain()
	}
	if cache != nil {
		cache.p.release()
	}
	sv.ring.drain()
}

// Cancel aborts the shared pipeline, the shard workers, and every viewer
// immediately, then releases every cached payload reference (ring slots,
// shard retransmit caches, keyframe cache) so the buffers return to the
// pool. The server is closed afterwards: Attach fails, Close stays safe.
func (sv *Server) Cancel() {
	sv.sess.Cancel()
	sv.ring.cancel()
	for _, sh := range sv.shards {
		<-sh.done
	}
	sv.teardown(true)
}
