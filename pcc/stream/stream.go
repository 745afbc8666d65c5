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
	"io"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
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
// datagram-style transport. It runs in the transmit stage for fresh
// packets and on the HandleControl caller's goroutine for retransmissions;
// returning an error aborts the session. Implementations must tolerate
// re-entrant invocation: an in-process receiver can NACK from within the
// delivery of an earlier packet.
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
// defaults to Wi-Fi, queues to depth 4, packets to a 1400-byte MTU.
type Config struct {
	// Options selects and configures the codec (as codec.OptionsFor).
	Options codec.Options
	// Mode selects the modelled edge board's power budget.
	Mode edgesim.PowerMode
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
	// Output, when set, receives the .pcv stream (header + surviving
	// frames, in order); a core.VideoReader on the other end decodes it.
	// The byte slice passed to Write is recycled after the call returns, so
	// writers that buffer asynchronously must copy (io.Writer's contract).
	Output io.Writer
	// FrameOut, when set, receives each undropped frame's encoded wire
	// bytes in transmit order, before Output/PacketOut emission (e.g. to
	// send them over TCP). Dropped frames are skipped. A Server uses it to
	// broadcast one encode to many viewers.
	FrameOut FrameSendFunc
	// StreamID tags every packet emitted through PacketOut (default 1).
	StreamID uint32
	// PacketOut, when set, emits each undropped frame as framed packets
	// (packet.go) with consecutive per-stream sequence numbers, retaining
	// the frame in a bounded retransmit cache so HandleControl can answer
	// receiver NACKs. Sequence numbers are assigned at transmit time, so
	// frames shed by the backpressure policy leave a frame-index gap but
	// no sequence gap — a receiver tells sender drops from network loss.
	PacketOut PacketSendFunc
	// RetransmitBuffer caps how many sent packets stay answerable for NACK
	// retransmission (default 1024; whole frames are evicted, oldest first,
	// and the newest frame stays answerable even when it alone is wider).
	RetransmitBuffer int
	// FEC configures forward-error-correction parity emission over
	// PacketOut (see fec.go). The zero value emits no parity unless the
	// congestion controller's adaptive parity knob raises it; either way
	// the .pcv wire output (Output/FrameOut) is untouched — parity
	// exists only in the packet stream.
	FEC FECConfig
}

// defaultRetransmitBuffer is the default RetransmitBuffer of a Session and
// a Server: the sent packets that stay answerable for NACKs.
const defaultRetransmitBuffer = 1024

func (c Config) normalized() Config {
	if c.Queue < 1 {
		c.Queue = 4
	}
	c.MTU = clampMTU(c.MTU, 64, 1400)
	if c.Link.BandwidthMbps <= 0 {
		c.Link = linksim.WiFi
	}
	if c.StreamID == 0 {
		c.StreamID = 1
	}
	if c.RetransmitBuffer < 1 {
		c.RetransmitBuffer = defaultRetransmitBuffer
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
	// Lossy-transport counters (PacketOut sessions): packets re-sent in
	// answer to NACKs, NACKed packets already evicted from the retransmit
	// buffer, and receiver-requested I-frame refreshes honoured.
	Retransmits int64
	RetxMisses  int64
	Refreshes   int64
	// Congestion-feedback counters: receiver reports consumed by the
	// controller, and reports rejected as duplicate or out of order.
	FeedbackReports int64
	FeedbackStale   int64
	// Adapt is the congestion controller's state (zero value when
	// Options.Adapt is disabled).
	Adapt codec.ControllerSnapshot
	// FEC counts the session's parity emission (ParitySent; the receive
	// side lives in the Receiver's RecoverySnapshot).
	FEC metrics.FECSnapshot
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
	wroteHdr  bool
	// hdrOpts is the encoder's normalized configuration as of New: what the
	// stream header carries. The transmit stage must not read the live
	// encoder options, which the attribute stage's rate knobs rewrite.
	hdrOpts codec.Options

	// tx is the session's one sender (sender.go): the PacketOut stream's
	// sequence space, sent-records, NACK answers and stale-feedback check.
	// Its frames' payloads live in tx.cache, budgeted at RetransmitBuffer
	// packets. Neither is torn down at Close: a receiver's NACKs for the
	// stream's tail arrive after the sender has closed and are still
	// answered, so the last RetransmitBuffer packets' worth of frames stay
	// referenced until the Session itself is garbage.
	tx *sender
}

// New starts a session's stage goroutines. Cancelling ctx aborts the
// session (Submit and Close return the cancellation error).
func New(ctx context.Context, cfg Config) *Session {
	cfg = cfg.normalized()
	sctx, cancel := context.WithCancel(ctx)
	s := &Session{
		cfg:       cfg,
		geomDev:   edgesim.NewXavier(cfg.Mode),
		attrDev:   edgesim.NewXavier(cfg.Mode),
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
		tx: &sender{
			ctx:    sctx,
			id:     cfg.StreamID,
			mtu:    cfg.MTU,
			budget: cfg.RetransmitBuffer,
			out:    cfg.PacketOut,
			cache:  newRetxCache(cfg.RetransmitBuffer, cfg.MTU, nil),
		},
	}
	s.enc = codec.NewEncoder(s.attrDev, cfg.Options)
	s.hdrOpts = s.enc.Options()
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
func (s *Session) Submit(ctx context.Context, vc *geom.VoxelCloud) error {
	if vc == nil || vc.Len() == 0 {
		return codec.ErrEmptyFrame
	}
	if s.ctx.Err() != nil {
		// Checked before the select, which picks at random among ready
		// cases: an aborted session with room in its ingest queue has two.
		return s.abortErr()
	}
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
	tx := s.tx.snapshot()
	s.mu.Lock()
	m := Metrics{
		Submitted:       s.submitted,
		Delivered:       s.delivered,
		Dropped:         s.droppedN,
		LinkTime:        s.linkTime,
		TxEnergyJ:       s.txJ,
		RxEnergyJ:       s.rxJ,
		WireBytes:       s.wireBytes,
		Packets:         s.packets,
		Retransmits:     tx.retransmits,
		RetxMisses:      tx.retxMisses,
		Refreshes:       s.refreshes,
		FeedbackReports: tx.fbReports,
		FeedbackStale:   tx.fbStale,
		FEC:             metrics.FECSnapshot{ParitySent: tx.parity},
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
			if err := s.emitWire(j); err != nil {
				s.fail(err)
				return
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

// sendPackets publishes one transmitted frame to the session's sender:
// the wire bytes are copied once into a refcounted payload (the pooled
// wire buffer is recycled after this returns), retained by the retransmit
// cache so NACKs can be rebuilt from it, and sent whole — the identity
// view — as frame index j.seq. Runs only on the transmit stage.
func (s *Session) sendPackets(j *job) error {
	f := newSharedFrame(j.seq, j.ftype, j.wire, s.cfg.MTU, s.cfg.FEC.groupLen(s.enc.Controller()))
	f.seq = uint64(j.seq)
	defer f.p.release()
	s.tx.cache.add(f)
	_, _, err := s.tx.send(f, uint32(j.seq), view{})
	return err
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

// HandleControl processes a receiver→sender control message. NACKs are
// answered by the session's sender: each requested packet still covered
// by the retransmit cache is rebuilt from its frame (byte-identical to the
// original, plus FlagRetransmit) and re-sent through PacketOut; sequence
// numbers whose frame has been evicted are counted as misses and ignored
// — the receiver's retry budget will conceal or skip. ControlRefresh
// forces the encoder's next frame to be an I-frame, restarting the GOP
// for a receiver that lost its reference. ControlFeedback reports steer
// the congestion controller (when Options.Adapt is enabled); duplicated
// or reordered reports are dropped as stale so a replayed report can
// never double-steer the knobs. Feedback is counted even with the
// controller disabled, so a misconfigured pairing is visible in Metrics.
//
// Safe to call concurrently with a running pipeline, including
// re-entrantly from within a PacketOut delivery chain (in-process
// transports): no lock is ever held across PacketOut.
func (s *Session) HandleControl(c Control) error {
	switch c.Kind {
	case ControlRefresh:
		s.enc.ForceIFrame()
		s.mu.Lock()
		s.refreshes++
		s.mu.Unlock()
	case ControlFeedback:
		fb := c.Feedback
		if !s.tx.acceptFeedback(fb.Report) {
			return nil
		}
		if ctrl := s.enc.Controller(); ctrl != nil {
			ctrl.ObserveFeedback(fb.CongestionRate())
		}
	case ControlNACK:
		return s.tx.handleNACK(c.Seqs)
	}
	return nil
}

// emitWire writes the frame's wire bytes to the configured Output.
func (s *Session) emitWire(j *job) error {
	if s.cfg.Output != nil {
		if !s.wroteHdr {
			if err := core.WriteStreamHeader(s.cfg.Output, s.hdrOpts); err != nil {
				return err
			}
			s.wroteHdr = true
		}
		if _, err := s.cfg.Output.Write(j.wire); err != nil {
			return err
		}
	}
	return nil
}
