package stream

// Viewer is one attached consumer of a Server's shared encode: it owns a
// bounded send queue, a backpressure policy, a private packet sequence
// space and frame-index space, and a control loop — everything
// per-session except the encode itself, which the Server pays once per
// frame for all viewers, and the frame bytes themselves, which the
// viewer's queue holds by reference to the one published payload.
//
// Slow-viewer isolation: enqueueing never blocks the relay shard. A full
// queue sheds its oldest P-frame (frame-index gaps read as sender drops at
// the receiver, which stays decodable because P-frames predict from their
// GOP I-frame, not from each other). When an I-frame arrives at a full
// queue the viewer is force-resynced: the stale backlog is flushed and the
// stream restarts from that fresh keyframe — a drowning viewer jumps to
// the newest I instead of serving frames it can no longer afford to send.
//
// Packets are the sender core's business (sender.go): the viewer decides
// WHAT to ship of each frame — the tiles its camera keeps, the layers its
// subscription keeps — and its sender packetizes that and answers NACKs by
// rebuilding from the owning shard's retransmit cache, so the retransmit
// memory for a partition is one frame set shared by every viewer in it.

import (
	"math/bits"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/linksim"
	"repro/internal/metrics"
	"repro/internal/viewport"
)

// ViewerConfig configures one attached viewer. The zero value of every
// field is usable: the MTU defaults to the server's. The server assigns
// the stream id; the queue holds ServerConfig.ViewerQueue frames, the
// modelled downlink is linksim.WiFi, the sender keeps the last retxBudget
// packets answerable for NACKs, and nothing is paced: a slow viewer is a
// slow PacketOut.
type ViewerConfig struct {
	// MTU is the packet payload size for this viewer.
	MTU int
	// Viewport, when non-nil, is the viewer's initial camera: tiled frames
	// are culled against it from the very first send (SetViewport updates
	// it live; a receiver drives it remotely with ControlViewport).
	Viewport *viewport.Camera
	// Layers, when > 0, is the viewer's initial explicit layer
	// subscription: layered frames ship only their first Layers layers,
	// sliced zero-copy from the published container (SetLayers updates it
	// live; a receiver drives it remotely with ControlLayers).
	Layers uint8
	// LayerAdapt, when Enabled, attaches a per-viewer layer controller:
	// this viewer's own congestion feedback sheds enhancement layers and
	// recovers them at keyframes — per-viewer quality as a drop decision,
	// with no shared-encoder knob involved. An explicit subscription
	// (Layers / SetLayers / ControlLayers) overrides the controller.
	LayerAdapt codec.LayerAdapt
	// PacketOut transmits this viewer's framed packets. It runs on the
	// viewer's sender goroutine (fresh and cached frames) and on the
	// HandleControl caller's goroutine (retransmissions), re-entrantly when
	// an in-process receiver NACKs from within the delivery of an earlier
	// packet. Nil builds and
	// accounts packets without sending — useful for capacity benchmarks.
	// A PacketOut error marks the viewer failed and stops its sender; it
	// never aborts the server or the other viewers.
	PacketOut PacketSendFunc
}

// ViewerMetrics is a point-in-time snapshot of one viewer's delivery state.
type ViewerMetrics struct {
	StreamID uint32
	// Queue is the send-queue gauge (depth, watermark, enqueues, drops).
	Queue metrics.QueueSnapshot
	// FramesEnqueued counts frames that entered the send queue (the size of
	// the viewer's frame-index space; queue drops leave index gaps).
	FramesEnqueued int64
	// FramesSent counts frames fully packetized and emitted.
	FramesSent int64
	// FramesDropped counts frames shed by the queue policy — queued frames
	// removed plus incoming frames rejected at a full queue.
	FramesDropped int64
	// SkippedNoRef counts P-frames skipped while the viewer had no usable
	// I-frame reference (cacheless join before the first keyframe).
	SkippedNoRef int64
	// Resyncs counts forced I-frame resyncs: overflows where the backlog
	// was flushed and the stream restarted from a fresh keyframe.
	Resyncs int64
	// CachedJoin reports that the viewer's first frame came from the
	// server's keyframe cache rather than a live encode.
	CachedJoin bool
	// JoinLatency is attach → first frame on the wire (0 until then).
	JoinLatency time.Duration
	// Packets / WireBytes total the emitted packets (headers included).
	// Packets counts data packets only; parity rides in ParitySent and its
	// bytes fold into WireBytes and the link cost.
	Packets   int64
	WireBytes int64
	// ParitySent counts FEC parity packets emitted after data packets.
	// Parity consumes no viewer sequence numbers and is never cached for
	// retransmission.
	ParitySent int64
	// Control-loop counters: NACK messages handled, packets re-sent,
	// NACKed packets no longer answerable (record or shard cache evicted),
	// refresh requests forwarded.
	NACKsReceived int64
	Retransmits   int64
	RetxMisses    int64
	Refreshes     int64
	// Congestion-feedback counters: reports this viewer's receiver sent
	// that were accepted, reports dropped as duplicate/stale, and the loss
	// rate its latest report carried (shards aggregate these across
	// viewers into the shared controller's signal).
	FeedbackReports int64
	FeedbackStale   int64
	LastLossRate    float64
	// Viewport-culling counters. TilesCulled / TilesCoarse total the tiles
	// omitted / sent geometry-only across all tiled sends; CulledBytes is
	// the payload bytes the culling kept off this viewer's wire (the gap
	// between the published frames and the culled rewrites actually sent).
	HasViewport     bool
	ViewportUpdates int64
	TilesCulled     int64
	TilesCoarse     int64
	CulledBytes     int64
	// Layer-subscription state: SubLayers is the subscription the latch
	// last applied (0 = full quality); LayerDownswitches / LayerUpswitches
	// count subscription shrinks and keyframe recoveries.
	SubLayers         uint8
	LayerDownswitches int64
	LayerUpswitches   int64
	// RetxBuffered is the packet span the sent-records currently cover —
	// how many recent sequence numbers this viewer can still answer NACKs
	// for (0 once the viewer is detached or the server cancelled, which
	// free the records; a clean Close keeps them).
	RetxBuffered int
	// Link totals over all sent frames.
	LinkTime  time.Duration
	TxEnergyJ float64
	RxEnergyJ float64
	// Err is the viewer's first transport error, if any.
	Err error
}

// queuedFrame is one frame waiting in a viewer's send queue, tagged with
// the viewer-local frame index assigned at enqueue time. It carries the
// frame's cut memo with it, so a slot the queue no longer uses is zeroed:
// once the frame's last entry is sent or shed, nothing reaches the memo.
type queuedFrame struct {
	idx uint32
	liveFrame
}

// Viewer is one fan-out consumer. Create with Server.Attach; release with
// Server.Detach (or Close). All methods are safe for concurrent use.
type Viewer struct {
	sv    *Server
	shard *shard // owning relay shard (set by Attach before the sender starts)
	id    uint32

	gauge    *metrics.QueueGauge
	joinedAt time.Time
	done     chan struct{}
	// tx is the viewer's packet stream: sequence space, sent-records, NACK
	// and stale-feedback handling (its own lock; never nested with mu).
	tx *sender

	// joinCache is the cached keyframe handed to a late joiner;
	// shard.attach enqueues and clears it.
	joinCache *sharedFrame
	// minLiveSeq is the first publish sequence this viewer accepts live: a
	// cached join supersedes everything published up to the cached
	// keyframe, so older in-flight frames are skipped silently.
	minLiveSeq uint64

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []queuedFrame
	closed  bool // no further enqueues; sender drains then exits
	discard bool // sender exits without draining
	// lostRef marks that the viewer has no decodable I-frame reference
	// (cacheless join): P-frames are skipped until the next keyframe.
	lostRef bool
	nextIdx uint32
	// cam is the viewer's viewport (nil = no culling: every tile ships).
	// The pointer is replaced wholesale on update, never mutated.
	cam *viewport.Camera
	// layersWant is the explicit subscription override (0 = none), curSub
	// the subscription the latch last applied (0 = full), lctrl the
	// per-viewer adaptive layer controller (nil = none attached).
	layersWant uint8
	curSub     uint8
	lctrl      *codec.LayerController

	framesSent    int64
	framesDropped int64
	skippedNoRef  int64
	resyncs       int64
	cachedJoin    bool
	joinLatency   time.Duration
	refreshes     int64
	lastLoss      float64
	vpUpdates     int64
	tilesCulled   int64
	tilesCoarse   int64
	culledBytes   int64
	layerDown     int64
	layerUp       int64
	linkTime      time.Duration
	txJ, rxJ      float64
	err           error
}

func newViewer(sv *Server, cfg ViewerConfig, joinCache *sharedFrame) *Viewer {
	v := &Viewer{
		sv:        sv,
		gauge:     metrics.NewQueueGauge("viewer-send"),
		joinedAt:  time.Now(),
		done:      make(chan struct{}),
		joinCache: joinCache,
		lostRef:   joinCache == nil,
		tx: &sender{
			ctx:    sv.sess.ctx,
			mtu:    cfg.MTU,
			budget: retxBudget,
			out:    cfg.PacketOut,
		},
	}
	if joinCache != nil {
		v.minLiveSeq = joinCache.seq + 1
	}
	if cfg.Viewport != nil && cfg.Viewport.FOVDegrees > 0 {
		cam := *cfg.Viewport
		v.cam = &cam
	}
	v.layersWant = cfg.Layers
	if cfg.LayerAdapt.Enabled {
		v.lctrl = codec.NewLayerController(cfg.LayerAdapt)
	}
	v.cond = sync.NewCond(&v.mu)
	return v
}

// SetViewport installs or replaces the viewer's camera: subsequent tiled
// frames are culled against it (tiles outside the frustum dropped, tiles
// in the widened margin sent geometry-only). A camera with FOVDegrees <= 0
// clears the viewport — the conventional "send everything" request — so a
// receiver can toggle culling with a single control message kind. Safe to
// call concurrently with a live stream; retransmits of frames already sent
// keep the masks they were sent with.
func (v *Viewer) SetViewport(cam viewport.Camera) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.vpUpdates++
	if cam.FOVDegrees <= 0 {
		v.cam = nil
		return
	}
	c := cam
	v.cam = &c
}

// ClearViewport removes the viewer's camera: every tile ships again.
func (v *Viewer) ClearViewport() { v.SetViewport(viewport.Camera{}) }

// SetLayers installs or replaces the viewer's explicit layer subscription:
// subsequent layered frames ship only their first sub layers, sliced
// zero-copy from the published container. sub == 0 clears the override,
// returning control to the adaptive layer controller (if configured) or to
// full quality. Shrinking the subscription applies on the very next send;
// growing it waits for the next keyframe (see subscriptionLocked). Safe to
// call concurrently with a live stream; retransmits of frames already sent
// keep the subscription they were sent with.
func (v *Viewer) SetLayers(sub uint8) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.layersWant = sub
}

// StreamID returns the viewer's packet stream id.
func (v *Viewer) StreamID() uint32 { return v.id }

// Close detaches the viewer from its server (Server.Detach shorthand).
func (v *Viewer) Close() { v.sv.Detach(v) }

// Err returns the viewer's first transport error, if any.
func (v *Viewer) Err() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.err
}

// Metrics snapshots the viewer's counters.
func (v *Viewer) Metrics() ViewerMetrics {
	tx := v.tx.snapshot()
	v.mu.Lock()
	defer v.mu.Unlock()
	return ViewerMetrics{
		StreamID:          v.id,
		Queue:             v.gauge.Snapshot(),
		FramesEnqueued:    int64(v.nextIdx),
		FramesSent:        v.framesSent,
		FramesDropped:     v.framesDropped,
		SkippedNoRef:      v.skippedNoRef,
		Resyncs:           v.resyncs,
		CachedJoin:        v.cachedJoin,
		JoinLatency:       v.joinLatency,
		Packets:           tx.packets,
		WireBytes:         tx.wireBytes,
		ParitySent:        tx.parity,
		NACKsReceived:     tx.nacks,
		Retransmits:       tx.retransmits,
		RetxMisses:        tx.retxMisses,
		Refreshes:         v.refreshes,
		FeedbackReports:   tx.fbReports,
		FeedbackStale:     tx.fbStale,
		LastLossRate:      v.lastLoss,
		HasViewport:       v.cam != nil,
		ViewportUpdates:   v.vpUpdates,
		TilesCulled:       v.tilesCulled,
		TilesCoarse:       v.tilesCoarse,
		CulledBytes:       v.culledBytes,
		SubLayers:         v.curSub,
		LayerDownswitches: v.layerDown,
		LayerUpswitches:   v.layerUp,
		RetxBuffered:      tx.buffered,
		LinkTime:          v.linkTime,
		TxEnergyJ:         v.txJ,
		RxEnergyJ:         v.rxJ,
		Err:               v.err,
	}
}

// enqueue offers one relayed frame to the viewer. It never blocks: the
// queue policy resolves overflow by shedding (see the type comment). Runs
// under the owning shard's lock, so it must stay O(queue). Returns whether
// the frame entered the queue.
func (v *Viewer) enqueue(lf liveFrame) bool {
	f := lf.f
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return false
	}
	if !f.cached && f.seq < v.minLiveSeq {
		// Published before this viewer's cached join point: the cached
		// keyframe already supersedes it. Not a drop — the frame was
		// never part of this viewer's stream.
		return false
	}
	if v.lostRef {
		if f.ftype == codec.PFrame {
			// Undecodable without a reference; don't waste queue or wire.
			v.skippedNoRef++
			v.framesDropped++
			v.gauge.Drop()
			return false
		}
		v.lostRef = false
	}
	if len(v.queue) >= v.sv.cfg.ViewerQueue {
		switch {
		case f.ftype == codec.IFrame:
			// Forced I-frame resync: the backlog is stale and a fresh
			// keyframe supersedes all of it — flush and restart from f.
			for range v.queue {
				v.gauge.Dequeue()
				v.gauge.Drop()
			}
			v.framesDropped += int64(len(v.queue))
			clear(v.queue)
			v.queue = v.queue[:0]
			v.resyncs++
		case v.dropOldestPLocked():
			// One slot freed; fall through to the append.
		default:
			// Queue full of I-frames: the incoming P predicts from the
			// newest queued keyframe, which will be delivered — shedding
			// the P keeps the stream decodable.
			v.framesDropped++
			v.gauge.Drop()
			return false
		}
	}
	if f.cached {
		v.cachedJoin = true
	}
	v.queue = append(v.queue, queuedFrame{idx: v.nextIdx, liveFrame: lf})
	v.nextIdx++
	v.gauge.Enqueue()
	v.cond.Signal()
	return true
}

// dropOldestPLocked removes the oldest queued P-frame.
// Returns false when the queue holds only I-frames (which are only
// superseded, never shed).
func (v *Viewer) dropOldestPLocked() bool {
	for i, qf := range v.queue {
		if qf.f.ftype == codec.PFrame {
			copy(v.queue[i:], v.queue[i+1:])
			v.queue[len(v.queue)-1] = queuedFrame{}
			v.queue = v.queue[:len(v.queue)-1]
			v.gauge.Dequeue()
			v.gauge.Drop()
			v.framesDropped++
			return true
		}
	}
	return false
}

// sendLoop is the viewer's sender goroutine: it drains the queue in order
// and hands each frame, with this viewer's view of it, to the sender core.
func (v *Viewer) sendLoop() {
	defer close(v.done)
	for {
		v.mu.Lock()
		for len(v.queue) == 0 && !v.closed && !v.discard {
			v.cond.Wait()
		}
		if v.discard || (v.closed && len(v.queue) == 0) || v.err != nil {
			v.mu.Unlock()
			return
		}
		qf := v.queue[0]
		copy(v.queue, v.queue[1:])
		v.queue[len(v.queue)-1] = queuedFrame{}
		v.queue = v.queue[:len(v.queue)-1]
		v.gauge.Dequeue()
		v.mu.Unlock()

		if err := v.sendFrame(qf); err != nil {
			v.mu.Lock()
			if v.err == nil {
				v.err = err
			}
			v.mu.Unlock()
			return
		}
	}
}

// sendFrame sends one frame as this viewer sees it. Runs only on the
// sender loop. The viewer's part is the drop decision — tileMasks
// classifies a tiled frame's tiles against the camera, the subscription
// latch picks the layers; the sender core turns it into a plan over the
// immutable published payload and cuts every packet from that, so culling
// neither re-encodes nor copies the frame. An empty decision (no camera,
// untiled frame, a camera that sees everything, full subscription) ships
// the published bytes whole.
func (v *Viewer) sendFrame(qf queuedFrame) error {
	v.mu.Lock()
	cam := v.cam
	vw := view{layers: v.subscriptionLocked(qf.f)}
	v.mu.Unlock()
	if l := qf.f.layout; l != nil && cam != nil && len(l.Tiles) > 0 {
		vw.omit, vw.coarse = tileMasks(l, *cam)
	}
	wire, shipped, err := v.tx.send(qf.liveFrame, qf.idx, vw)
	if err != nil {
		return err
	}
	// Parity bytes ride the same link budget as the data.
	cost, err := linksim.WiFi.Transmit(wire)
	if err != nil {
		return err
	}
	v.mu.Lock()
	v.framesSent++
	v.tilesCulled += int64(bits.OnesCount64(vw.omit))
	v.tilesCoarse += int64(bits.OnesCount64(vw.coarse))
	v.culledBytes += int64(len(qf.f.p.wire) - shipped)
	v.linkTime += cost.Latency
	v.txJ += cost.TxEnergy
	v.rxJ += cost.RxEnergy
	if v.joinLatency == 0 {
		v.joinLatency = time.Since(v.joinedAt)
	}
	v.mu.Unlock()
	return nil
}

// subscriptionLocked resolves the layer subscription for one outgoing
// frame and advances the viewer's latch. An explicit override (Layers /
// SetLayers / ControlLayers) wins over the adaptive controller; with
// neither, the frame ships whole. Shrinking the subscription applies
// immediately — dropping enhancement layers is always safe — but growing
// it waits for a keyframe: the decoder's reference contract only lets the
// subscription widen where a full I-frame re-anchors the GOP, so a viewer
// never receives a full P-frame against a partial I reference. Returns the
// Sub to slice at (0 = ship all layers). Caller holds v.mu.
func (v *Viewer) subscriptionLocked(f *sharedFrame) uint8 {
	l := f.layout
	if l == nil || !l.Layered() {
		return 0
	}
	effL := l.Layers
	want := effL
	switch {
	case v.layersWant != 0:
		want = int(v.layersWant)
	case v.lctrl != nil:
		want = effL - v.lctrl.Drop()
	}
	if want > effL {
		want = effL
	}
	if want < 1 {
		want = 1
	}
	cur := effL
	if v.curSub != 0 && int(v.curSub) < effL {
		cur = int(v.curSub)
	}
	switch {
	case want < cur:
		v.layerDown++
	case want > cur && f.ftype == codec.IFrame:
		v.layerUp++
	default:
		want = cur
	}
	if want >= effL {
		v.curSub = 0
		return 0
	}
	v.curSub = uint8(want)
	return uint8(want)
}

// HandleControl processes one receiver→sender control message addressed to
// this viewer. NACKs are answered by the sender core from the owning
// shard's retransmit cache; a refresh request is coalesced by the shard,
// then the server, into at most one GOP restart; a feedback report the
// sender accepts as fresh (numbering is per viewer) updates this viewer's
// observed loss, folds it into the shard's loss table, and triggers the
// server's worst-percentile reduction. Safe to call
// concurrently with a live stream, including re-entrantly from within a
// PacketOut delivery chain.
func (v *Viewer) HandleControl(c Control) error {
	switch c.Kind {
	case ControlViewport:
		// A camera with FOVDegrees <= 0 clears the viewport (see
		// SetViewport); anything else installs it for subsequent sends.
		v.SetViewport(c.Camera)
	case ControlLayers:
		// 0 clears the explicit subscription (see SetLayers); anything else
		// installs it for subsequent layered sends.
		v.SetLayers(c.Layers)
	case ControlRefresh:
		v.mu.Lock()
		v.refreshes++
		v.mu.Unlock()
		if v.shard != nil {
			v.shard.requestRefresh()
		}
	case ControlFeedback:
		fb := c.Feedback
		if !v.tx.acceptFeedback(fb.Report) {
			return nil
		}
		v.mu.Lock()
		v.lastLoss = fb.LossRate()
		loss := fb.CongestionRate() // steering signal; lastLoss stays wire loss
		if v.lctrl != nil {
			// The per-viewer layer controller consumes the same congestion
			// signal, but acts only on THIS viewer's subscription — the
			// shared encoder never hears about it.
			v.lctrl.Observe(loss)
		}
		v.mu.Unlock()
		// Aggregate outside v.mu: the fold takes shard.mu, the reduction
		// every shard's mu in turn (the relay lock order).
		if v.shard != nil {
			v.shard.noteLoss(v.id, loss)
		}
		v.sv.reduceFeedback()
	case ControlNACK:
		return v.tx.handleNACK(c.Seqs)
	}
	return nil
}

// shutdown stops the viewer: no further enqueues, the sender either drains
// the queue (clean close) or abandons it (detach/cancel) after the send in
// progress, and the queue is dropped. A discarding shutdown also frees the
// sent-records; a clean close keeps them, like the shard caches, so the
// receiver's NACKs for the stream's tail, which arrive after Close, are
// still answered. Blocks until the sender goroutine exits; counters remain
// readable through Metrics afterwards. Idempotent.
func (v *Viewer) shutdown(discard bool) {
	v.mu.Lock()
	v.closed = true
	v.discard = v.discard || discard
	v.cond.Broadcast()
	v.mu.Unlock()
	<-v.done
	v.mu.Lock()
	for range v.queue {
		v.gauge.Dequeue()
	}
	v.queue = nil
	v.mu.Unlock()
	if discard {
		v.tx.stop()
	}
}
