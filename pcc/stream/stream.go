// Package stream is a concurrent, bounded-channel streaming pipeline for
// point-cloud video: ingest → geometry encode → attribute encode →
// packetize → link transmit, with every stage running in its own goroutine
// so stages overlap across frames (the geometry encode of frame N+1 runs
// while frame N's attributes are still being coded — the frame-granularity
// analogue of the paper's intra-frame parallelism, Sec. IV).
//
// GOP I/P dependencies are respected: the attribute stage finishes frames
// strictly in submission order and performs the encoder's reference-frame
// handoff, so P-frames always predict from the correct I-frame. When the
// modelled link congests, a configurable backpressure policy keeps latency
// bounded: Block stalls the producer, DropOldestP sacrifices the oldest
// queued P-frame (never an I-frame) so the stream stays decodable.
//
// Sessions are isolated — each owns its encoder, its per-stage edge-device
// ledgers, and its queues — so any number of them can run in parallel
// (multi-viewer edge serving). Per-stage queue depths and drop counters are
// surfaced through internal/metrics queue gauges.
package stream

import (
	"bytes"
	"context"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/edgesim"
	"repro/internal/geom"
	"repro/internal/linksim"
	"repro/internal/metrics"
)

// Policy selects the backpressure behaviour when the transmit queue fills.
type Policy int

const (
	// Block stalls the pipeline (and ultimately Submit) until the link
	// drains — lossless, unbounded latency.
	Block Policy = iota
	// DropOldestP marks the oldest queued P-frame as dropped to bound
	// queueing latency. I-frames are never dropped; a queue holding only
	// I-frames blocks instead.
	DropOldestP
)

func (p Policy) String() string {
	if p == DropOldestP {
		return "drop-oldest-P"
	}
	return "block"
}

// PacketSendFunc transmits one framed packet (packet.go layout) over a
// datagram-style transport: a Session's send-only stream (Config) or a
// Server viewer's (ViewerConfig, which says where it runs and what an
// error does). The callee owns pkt: the sender never writes it again, so
// it may be kept, modified or appended to (it comes with no spare
// capacity, so an append never reaches another packet).
type PacketSendFunc func(ctx context.Context, pkt []byte) error

// FrameSendFunc receives each undropped frame's type and wire bytes (one
// .pcv frame container), in transmit order — the hook for a real
// transport, and the one a Server uses to broadcast one encode to many
// viewers. It runs in the transmit stage; returning an error aborts the
// session. The context is the session's: implementations must return (with
// any error) once it is cancelled, or Close cannot drain the pipeline. The
// wire slice is only valid for the duration of the call (the session
// recycles its backing buffer); implementations that retain the bytes must
// copy them.
type FrameSendFunc func(ctx context.Context, seq int, ftype codec.FrameType, wire []byte) error

// Config configures a Session. The zero value of every field is usable:
// paper-default codec options require only Options.Design, the link
// defaults to Wi-Fi, queues to depth 4, packets to a 1400-byte MTU. The
// modelled edge board runs at edgesim.Mode15W and packets carry stream
// id 1.
type Config struct {
	// Options selects and configures the codec (as codec.OptionsFor).
	Options codec.Options
	// Link is the modelled wireless uplink (default linksim.WiFi).
	Link linksim.Link
	// Queue is the per-stage queue capacity (default 4).
	Queue int
	// Policy is the transmit-queue backpressure policy.
	Policy Policy
	// MTU is the packet payload size used by the packetize stage
	// (default 1400 bytes).
	MTU int
	// Pace, when > 0, makes the transmit stage sleep Pace real seconds per
	// simulated link second, so a congested link really backpressures the
	// pipeline (0 = transmit at full speed, accounting latency only).
	Pace float64
	// FrameOut, when set, receives each undropped frame's encoded wire
	// bytes in transmit order, before PacketOut emission (e.g. to write a
	// .pcv stream or send the frames over TCP). Dropped frames are
	// skipped. A Server uses it to broadcast one encode to many viewers.
	FrameOut FrameSendFunc
	// PacketOut, when set, receives each undropped frame whole as framed
	// packets (packet.go), frame index = Seq, after FrameOut. It runs on
	// the transmit stage; returning an error aborts the session. Sequence
	// numbers are consecutive over the frames sent, so frames shed by the
	// backpressure policy leave a frame-index gap but no sequence gap — a
	// receiver tells sender drops from network loss. The stream is
	// send-only: no parity, and nothing answers a NACK, a refresh or a
	// feedback report. A receiver that talks back is a Server's viewer's.
	PacketOut PacketSendFunc
}

// retxBudget is every viewer sender's retransmit budget in packets: its
// sent-records, each shard's retransmit cache (whole frames are evicted,
// oldest first, and the newest frame stays answerable even when it alone
// is wider), and the receiver's widest NACKable sequence jump
// (maxSeqJump).
const retxBudget = 1024

func (c Config) normalized() Config {
	if c.Queue < 1 {
		c.Queue = 4
	}
	c.MTU = clampMTU(c.MTU, 64, 1400)
	if c.Link.BandwidthMbps <= 0 {
		c.Link = linksim.WiFi
	}
	return c
}

// job is one frame flowing through the pipeline; stages fill and then
// release their fields so a queued frame holds only what later stages need.
type job struct {
	seq   int
	cloud *geom.VoxelCloud
	g     *codec.GeometryIntermediate
	frame *codec.EncodedFrame
	ftype codec.FrameType
	stats codec.FrameStats
	wire  []byte
	// wbuf is the pooled buffer backing wire; the transmit stage recycles
	// it once the frame has been emitted (or dropped).
	wbuf    *bytes.Buffer
	packets int
	dropped bool
}

// wireBufs pools the per-frame wire serialization buffers so steady-state
// packetization allocates nothing beyond the frame payload itself.
var wireBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Result reports the fate of one submitted frame, delivered in submission
// order on Session.Results.
type Result struct {
	Seq   int
	Stats codec.FrameStats
	// Dropped frames were encoded but sacrificed by the backpressure
	// policy before transmission (always P-frames).
	Dropped bool
	// Packets and WireBytes describe the packetized frame container.
	Packets   int
	WireBytes int64
	// Link is the modelled transmission cost (zero for dropped frames).
	Link linksim.Cost
}

// Metrics is a point-in-time snapshot of a session's pipeline state.
type Metrics struct {
	Submitted, Delivered, Dropped int64
	// Queues are the per-stage queue gauges in pipeline order:
	// ingest, geometry, packetize, transmit.
	Queues []metrics.QueueSnapshot
	// GeometrySim/AttrSim are the per-stage device ledgers (the two encode
	// stages run on separate modelled engines so they can overlap).
	GeometrySim     time.Duration
	GeometryEnergyJ float64
	AttrSim         time.Duration
	AttrEnergyJ     float64
	// Link totals over all transmitted frames.
	LinkTime  time.Duration
	TxEnergyJ float64
	RxEnergyJ float64
	WireBytes int64
	Packets   int64
	// Refreshes counts I-frame restarts a Server forced on the encoder.
	Refreshes int64
	// Adapt is the congestion controller's state (zero value when
	// Options.Adapt is disabled).
	Adapt codec.ControllerSnapshot
}

// Session is one live streaming pipeline. Create with New, feed frames with
// Submit (single producer), consume Results, then Close to drain. Cancel —
// or cancelling the context passed to New — aborts mid-stream.
type Session struct {
	cfg Config
	enc *codec.Encoder
	// geomDev and attrDev are the two stages' devices: the geometry of the
	// next frame runs beside the attribute phase of this one, and each keeps
	// its own ledger.
	geomDev, attrDev *edgesim.Device

	ctx    context.Context
	cancel context.CancelFunc

	in      chan *job
	gq      chan *job
	pq      chan *job
	txq     *frameQueue
	results chan Result

	gaugeIn, gaugeGeom, gaugePkt, gaugeTx *metrics.QueueGauge

	// inShut, set by Close under inMu, refuses further Submits; submits
	// counts those past the check, and Close waits them out before it
	// closes in, so no send reaches a closed channel.
	inMu      sync.Mutex
	inShut    bool
	submits   sync.WaitGroup
	nextSeq   int
	closeOnce sync.Once
	closeErr  error
	wg        sync.WaitGroup

	errOnce  sync.Once
	firstErr error

	mu        sync.Mutex
	submitted int64
	delivered int64
	droppedN  int64
	linkTime  time.Duration
	txJ, rxJ  float64
	wireBytes int64
	packets   int64
	refreshes int64

	// pktSeq is the PacketOut stream's next sequence number; touched only
	// by the transmit stage.
	pktSeq uint32
}

// New starts a session's stage goroutines. Cancelling ctx aborts the
// session (Submit and Close return the cancellation error).
func New(ctx context.Context, cfg Config) *Session {
	cfg = cfg.normalized()
	sctx, cancel := context.WithCancel(ctx)
	s := &Session{
		cfg:       cfg,
		geomDev:   edgesim.NewXavier(edgesim.Mode15W),
		attrDev:   edgesim.NewXavier(edgesim.Mode15W),
		ctx:       sctx,
		cancel:    cancel,
		in:        make(chan *job, cfg.Queue),
		gq:        make(chan *job, cfg.Queue),
		pq:        make(chan *job, cfg.Queue),
		results:   make(chan Result, cfg.Queue),
		gaugeIn:   metrics.NewQueueGauge("ingest"),
		gaugeGeom: metrics.NewQueueGauge("geometry"),
		gaugePkt:  metrics.NewQueueGauge("packetize"),
		gaugeTx:   metrics.NewQueueGauge("transmit"),
	}
	s.enc = codec.NewEncoder(s.attrDev, cfg.Options)
	s.txq = newFrameQueue(cfg.Queue, cfg.Policy, s.gaugeTx)

	// Propagate context cancellation into the cond-based transmit queue.
	go func() {
		<-sctx.Done()
		s.txq.cancelQ()
	}()

	s.wg.Add(4)
	go s.geometryStage()
	go s.attrStage()
	go s.packetizeStage()
	go s.transmitStage()
	return s
}

// fail records the session's first error and aborts the pipeline.
func (s *Session) fail(err error) {
	s.errOnce.Do(func() {
		s.firstErr = err
		s.cancel()
	})
}

// Submit hands the pipeline the next frame. It blocks when the ingest
// queue is full (backpressure reaches the producer under the Block policy).
// Submit is single-producer: frames take sequence numbers in call order.
// A Submit that Close overtakes takes no frame and returns an error
// (context.Canceled after a clean close); Close drains every frame whose
// Submit returned nil.
func (s *Session) Submit(ctx context.Context, vc *geom.VoxelCloud) error {
	if vc == nil || vc.Len() == 0 {
		return codec.ErrEmptyFrame
	}
	if s.ctx.Err() != nil {
		// Checked before the select, which picks at random among ready
		// cases: an aborted session with room in its ingest queue has two.
		return s.abortErr()
	}
	s.inMu.Lock()
	shut := s.inShut
	if !shut {
		s.submits.Add(1)
	}
	s.inMu.Unlock()
	if shut {
		return context.Canceled // Close is draining
	}
	defer s.submits.Done()
	j := &job{seq: s.nextSeq, cloud: vc}
	select {
	case s.in <- j:
		s.nextSeq++
		s.gaugeIn.EnqueueAt(len(s.in))
		s.mu.Lock()
		s.submitted++
		s.mu.Unlock()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-s.ctx.Done():
		return s.abortErr()
	}
}

// abortErr is why an aborted session refuses a frame: its first pipeline
// error, or else the cancellation.
func (s *Session) abortErr() error {
	if err := s.Err(); err != nil {
		return err
	}
	return s.ctx.Err()
}

// Results delivers one Result per submitted frame, in submission order,
// including dropped frames. The channel closes once the pipeline drains
// after Close (or aborts). Consume it concurrently with Submit: an unread
// Results channel eventually backpressures the transmit stage.
func (s *Session) Results() <-chan Result { return s.results }

// Close stops accepting frames, drains every stage, and returns the first
// pipeline error (nil on a clean drain, the cancellation error if the
// session was aborted). Results must be consumed for Close to finish.
// Close is idempotent: later calls return the first call's result.
func (s *Session) Close() error {
	s.closeOnce.Do(func() {
		s.inMu.Lock()
		s.inShut = true
		s.inMu.Unlock()
		s.submits.Wait()
		close(s.in)
		s.wg.Wait()
		err := s.ctx.Err() // read before the self-cancel below
		s.cancel()         // release the context watcher; no-op on drained queues
		s.closeErr = err
		if s.firstErr != nil {
			s.closeErr = s.firstErr
		}
	})
	return s.closeErr
}

// Cancel aborts the session immediately: queued frames are discarded and
// in-flight stage work is abandoned at the next handoff.
func (s *Session) Cancel() { s.cancel() }

// Err returns the first pipeline error, if any.
func (s *Session) Err() error {
	s.errOnce.Do(func() {}) // synchronize with fail
	return s.firstErr
}

// Options returns the encoder's normalized configuration.
func (s *Session) Options() codec.Options { return s.enc.Options() }

// Metrics snapshots the session's pipeline counters and device ledgers.
func (s *Session) Metrics() Metrics {
	s.mu.Lock()
	m := Metrics{
		Submitted: s.submitted,
		Delivered: s.delivered,
		Dropped:   s.droppedN,
		LinkTime:  s.linkTime,
		TxEnergyJ: s.txJ,
		RxEnergyJ: s.rxJ,
		WireBytes: s.wireBytes,
		Packets:   s.packets,
		Refreshes: s.refreshes,
	}
	s.mu.Unlock()
	if ctrl := s.enc.Controller(); ctrl != nil {
		m.Adapt = ctrl.Snapshot()
	}
	m.Queues = []metrics.QueueSnapshot{
		s.gaugeIn.Snapshot(),
		s.gaugeGeom.Snapshot(),
		s.gaugePkt.Snapshot(),
		s.gaugeTx.Snapshot(),
	}
	m.GeometrySim = s.geomDev.SimTime()
	m.GeometryEnergyJ = s.geomDev.EnergyJ()
	m.AttrSim = s.attrDev.SimTime()
	m.AttrEnergyJ = s.attrDev.EnergyJ()
	return m
}

// geometryStage encodes each frame's geometry on the geometry device, ahead
// of the in-order attribute stage by at most the geometry queue: geometry
// touches no mutable encoder state, so frame N+1's geometry runs beside
// frame N's attributes.
func (s *Session) geometryStage() {
	defer s.wg.Done()
	defer close(s.gq)
	for j := range s.in {
		s.gaugeIn.Dequeue()
		if s.ctx.Err() != nil {
			continue // drain remaining submissions without encoding
		}
		g, err := s.enc.EncodeGeometryOn(s.geomDev, j.cloud)
		if err != nil {
			s.fail(err)
			continue
		}
		j.g, j.cloud = g, nil
		select {
		case s.gq <- j:
			s.gaugeGeom.EnqueueAt(len(s.gq))
		case <-s.ctx.Done():
		}
	}
}

// attrStage finishes frames strictly in order: it owns the GOP position and
// the I-frame reference handoff inside the encoder.
func (s *Session) attrStage() {
	defer s.wg.Done()
	defer close(s.pq)
	for j := range s.gq {
		s.gaugeGeom.Dequeue()
		if s.ctx.Err() != nil {
			continue
		}
		frame, st, err := s.enc.FinishFrame(j.g)
		if err != nil {
			s.fail(err)
			continue
		}
		j.g, j.frame, j.ftype, j.stats = nil, frame, frame.Type, st
		select {
		case s.pq <- j:
			s.gaugePkt.EnqueueAt(len(s.pq))
		case <-s.ctx.Done():
		}
	}
}

// packetizeStage serializes each frame into its wire container, splits it
// into MTU-sized packets, and pushes it into the policy-governed transmit
// queue — the point where backpressure resolves into blocking or dropping.
func (s *Session) packetizeStage() {
	defer s.wg.Done()
	defer s.txq.closeQ()
	for j := range s.pq {
		s.gaugePkt.Dequeue()
		if s.ctx.Err() != nil {
			continue
		}
		buf := wireBufs.Get().(*bytes.Buffer)
		buf.Reset()
		if _, err := j.frame.WriteTo(buf); err != nil {
			wireBufs.Put(buf)
			s.fail(err)
			continue
		}
		j.frame = nil
		j.wire = buf.Bytes()
		j.wbuf = buf
		j.packets = fragsAtMTU(len(j.wire), s.cfg.MTU)
		if err := s.txq.push(j); err != nil {
			continue // canceled
		}
	}
}

// transmitStage drains the transmit queue in order, charging the modelled
// link for surviving frames and reporting every frame's fate.
func (s *Session) transmitStage() {
	defer s.wg.Done()
	defer close(s.results)
	for {
		j, ok := s.txq.pop()
		if !ok {
			return
		}
		res := Result{
			Seq:       j.seq,
			Stats:     j.stats,
			Dropped:   j.dropped,
			Packets:   j.packets,
			WireBytes: int64(len(j.wire)),
		}
		if j.dropped {
			s.mu.Lock()
			s.droppedN++
			s.mu.Unlock()
			s.observeLocal(linksim.Cost{}, true)
		} else {
			cost, err := s.cfg.Link.Transmit(int64(len(j.wire)))
			if err != nil {
				s.fail(err)
				return
			}
			res.Link = cost
			s.observeLocal(cost, false)
			s.mu.Lock()
			s.delivered++
			s.linkTime += cost.Latency
			s.txJ += cost.TxEnergy
			s.rxJ += cost.RxEnergy
			s.wireBytes += int64(len(j.wire))
			s.packets += int64(j.packets)
			s.mu.Unlock()
			if s.cfg.Pace > 0 {
				pause := time.Duration(float64(cost.Latency) * s.cfg.Pace)
				select {
				case <-time.After(pause):
				case <-s.ctx.Done():
					return
				}
			}
			if s.cfg.FrameOut != nil {
				if err := s.cfg.FrameOut(s.ctx, j.seq, j.ftype, j.wire); err != nil {
					s.fail(err)
					return
				}
			}
			if s.cfg.PacketOut != nil {
				if err := s.sendPackets(j); err != nil {
					s.fail(err)
					return
				}
			}
		}
		if j.wbuf != nil {
			// Packets and outputs copy the wire bytes, so the buffer is
			// free for a later frame once emission is done.
			j.wire = nil
			wireBufs.Put(j.wbuf)
			j.wbuf = nil
		}
		select {
		case s.results <- res:
		case <-s.ctx.Done():
			return
		}
	}
}

// Collector drains a session's Results in the background, so producers
// that only care about the final tally can Submit then Close without
// plumbing their own consumer goroutine.
type Collector struct {
	done    chan struct{}
	results []Result
}

// NewCollector starts draining s.Results.
func NewCollector(s *Session) *Collector {
	c := &Collector{done: make(chan struct{})}
	go func() {
		defer close(c.done)
		for r := range s.Results() {
			c.results = append(c.results, r)
		}
	}()
	return c
}

// Wait blocks until the session's Results channel closes (i.e. after
// Session.Close or Cancel) and returns every result in delivery order.
func (c *Collector) Wait() []Result {
	<-c.done
	return c.results
}

// sendPackets frames one transmitted frame whole, as frame index j.seq,
// into packets of its own (the pooled wire buffer is recycled after this
// returns) and hands them to PacketOut. Runs only on the transmit stage.
func (s *Session) sendPackets(j *job) error {
	pkts, err := identityPlan(j.wire).packets(PacketHeader{
		StreamID:   1,
		FrameIndex: uint32(j.seq),
		FrameType:  j.ftype,
		Seq:        s.pktSeq,
	}, s.cfg.MTU)
	if err != nil {
		return err
	}
	s.pktSeq += uint32(len(pkts))
	for _, pkt := range pkts {
		if err := s.cfg.PacketOut(s.ctx, pkt); err != nil {
			return err
		}
	}
	return nil
}

// Controller returns the session's congestion controller, nil unless
// Options.Adapt is enabled.
func (s *Session) Controller() *codec.Controller { return s.enc.Controller() }

// observeLocal feeds the congestion controller one per-frame observation
// from the transmit stage: transmit-queue fill, whether the backpressure
// policy shed the frame, and the frame's modelled link time.
func (s *Session) observeLocal(cost linksim.Cost, shed bool) {
	ctrl := s.enc.Controller()
	if ctrl == nil {
		return
	}
	ctrl.ObserveLocal(codec.LocalSignal{
		QueueFill: float64(s.gaugeTx.Depth()) / float64(s.cfg.Queue),
		Shed:      shed,
		Latency:   cost.Latency,
	})
}

// forceIFrame makes the encoder's next frame an I-frame, restarting the
// GOP: a Server's coalesced answer to its viewers' refresh requests.
func (s *Session) forceIFrame() {
	s.enc.ForceIFrame()
	s.mu.Lock()
	s.refreshes++
	s.mu.Unlock()
}
