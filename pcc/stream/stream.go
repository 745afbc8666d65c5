// Package stream is a concurrent, bounded-channel streaming pipeline for
// point-cloud video: ingest → geometry encode → attribute encode →
// packetize → link transmit, with every stage running in its own goroutine
// so stages overlap across frames (the geometry encode of frame N+1 runs
// while frame N's attributes are still being coded — the frame-granularity
// analogue of the paper's intra-frame parallelism, Sec. IV).
//
// GOP I/P dependencies are respected: the attribute stage finishes frames
// strictly in submission order and performs the encoder's reference-frame
// handoff, so P-frames always predict from the correct I-frame. Every stage
// queue holds stageQueue frames and blocks when full, so a slow transmit
// stage stalls the producer and the pipeline never sheds a frame: a
// Server, which wraps one Session, sheds per viewer, in each viewer's own
// queue.
//
// Sessions are isolated — each owns its encoder, its per-stage edge-device
// ledgers, and its queues — so any number of them can run in parallel.
// Per-stage queue depths are surfaced through internal/metrics queue
// gauges.
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

// PacketSendFunc transmits one framed packet (packet.go layout) over a
// datagram-style transport: a Session's send-only stream (Config) or a
// Server viewer's (ViewerConfig, which says where it runs and what an
// error does). The callee owns pkt: the sender never writes it again, so
// it may be kept, modified or appended to (it comes with no spare
// capacity, so an append never reaches another packet).
type PacketSendFunc func(ctx context.Context, pkt []byte) error

// FrameSendFunc receives each frame's type and wire bytes (one .pcv frame
// container), in transmit order — the hook for a real transport, and the
// one a Server uses to broadcast one encode to many viewers. It runs in the transmit stage; returning an error aborts the
// session. The context is the session's: implementations must return (with
// any error) once it is cancelled, or Close cannot drain the pipeline. The
// wire slice is only valid for the duration of the call (the session
// recycles its backing buffer); implementations that retain the bytes must
// copy them.
type FrameSendFunc func(ctx context.Context, seq int, ftype codec.FrameType, wire []byte) error

// Config configures a Session. The zero value of every field is usable:
// paper-default codec options require only Options.Design, packets default
// to a 1400-byte MTU. The modelled edge board runs at edgesim.Mode15W, the
// modelled link is linksim.WiFi, every stage queue holds stageQueue frames
// and packets carry stream id 1.
type Config struct {
	// Options selects and configures the codec (as codec.OptionsFor).
	Options codec.Options
	// MTU is the packet payload size used by the packetize stage
	// (default 1400 bytes).
	MTU int
	// FrameOut, when set, receives each frame's encoded wire bytes in
	// transmit order, before PacketOut emission (e.g. to write a .pcv
	// stream or send the frames over TCP). A Server uses it to broadcast
	// one encode to many viewers.
	FrameOut FrameSendFunc
	// PacketOut, when set, receives each frame whole as framed packets
	// (packet.go), frame index = Seq, after FrameOut. It runs on the
	// transmit stage; returning an error aborts the session. The stream is
	// send-only: no parity, and nothing answers a NACK, a refresh or a
	// feedback report. A receiver that talks back is a Server's viewer's.
	PacketOut PacketSendFunc
}

// stageQueue is every stage queue's capacity in frames: ingest, geometry,
// packetize and transmit.
const stageQueue = 4

// retxBudget is every viewer sender's retransmit budget in packets: its
// sent-records, each shard's retransmit cache (whole frames are evicted,
// oldest first, and the newest frame stays answerable even when it alone
// is wider), and the receiver's widest NACKable sequence jump
// (maxSeqJump).
const retxBudget = 1024

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
	// it once the frame has been emitted.
	wbuf    *bytes.Buffer
	packets int
}

// wireBufs pools the per-frame wire serialization buffers so steady-state
// packetization allocates nothing beyond the frame payload itself.
var wireBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Result reports the fate of one submitted frame, delivered in submission
// order on Session.Results.
type Result struct {
	Seq   int
	Stats codec.FrameStats
	// Packets and WireBytes describe the packetized frame container.
	Packets   int
	WireBytes int64
	// Link is the modelled transmission cost over linksim.WiFi.
	Link linksim.Cost
}

// Metrics is a point-in-time snapshot of a session's pipeline state.
type Metrics struct {
	Submitted, Delivered int64
	// Dropped is always 0: a Session never sheds a frame. It stays for
	// readers of a Server's Pipeline snapshot.
	Dropped int64
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
	txq     chan *job
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
	cfg.MTU = clampMTU(cfg.MTU, 64, 1400)
	sctx, cancel := context.WithCancel(ctx)
	s := &Session{
		cfg:       cfg,
		geomDev:   edgesim.NewXavier(edgesim.Mode15W),
		attrDev:   edgesim.NewXavier(edgesim.Mode15W),
		ctx:       sctx,
		cancel:    cancel,
		in:        make(chan *job, stageQueue),
		gq:        make(chan *job, stageQueue),
		pq:        make(chan *job, stageQueue),
		txq:       make(chan *job, stageQueue),
		results:   make(chan Result, stageQueue),
		gaugeIn:   metrics.NewQueueGauge("ingest"),
		gaugeGeom: metrics.NewQueueGauge("geometry"),
		gaugePkt:  metrics.NewQueueGauge("packetize"),
		gaugeTx:   metrics.NewQueueGauge("transmit"),
	}
	s.enc = codec.NewEncoder(s.attrDev, cfg.Options)

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
// queue is full (backpressure from a slow transmit stage reaches the
// producer).
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

// Results delivers one Result per submitted frame, in submission order.
// The channel closes once the pipeline drains after Close (or aborts).
// Consume it concurrently with Submit: an unread Results channel
// eventually backpressures the transmit stage.
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

// packetizeStage serializes each frame into its wire container, counts its
// MTU-sized packets, and hands it to the transmit stage.
func (s *Session) packetizeStage() {
	defer s.wg.Done()
	defer close(s.txq)
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
		select {
		case s.txq <- j:
			s.gaugeTx.EnqueueAt(len(s.txq))
		case <-s.ctx.Done():
		}
	}
}

// transmitStage takes frames in order, charging the modelled link for each
// and reporting its fate. It returns once the packetize stage is drained, or
// at once on cancellation, closing Results either way.
func (s *Session) transmitStage() {
	defer s.wg.Done()
	defer close(s.results)
	for {
		var j *job
		select {
		case j = <-s.txq:
		case <-s.ctx.Done():
		}
		if j == nil || s.ctx.Err() != nil {
			return // drained, or aborted
		}
		s.gaugeTx.Dequeue()
		cost, err := linksim.WiFi.Transmit(int64(len(j.wire)))
		if err != nil {
			s.fail(err)
			return
		}
		s.observeLocal(cost)
		s.mu.Lock()
		s.delivered++
		s.linkTime += cost.Latency
		s.txJ += cost.TxEnergy
		s.rxJ += cost.RxEnergy
		s.wireBytes += int64(len(j.wire))
		s.packets += int64(j.packets)
		s.mu.Unlock()
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
		res := Result{
			Seq:       j.seq,
			Stats:     j.stats,
			Packets:   j.packets,
			WireBytes: int64(len(j.wire)),
			Link:      cost,
		}
		// Packets and outputs copy the wire bytes, so the buffer is free
		// for a later frame once emission is done.
		j.wire = nil
		wireBufs.Put(j.wbuf)
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
// from the transmit stage: transmit-queue fill and the frame's modelled
// link time, the controller's two local inputs.
func (s *Session) observeLocal(cost linksim.Cost) {
	ctrl := s.enc.Controller()
	if ctrl == nil {
		return
	}
	ctrl.ObserveLocal(codec.LocalSignal{
		QueueFill: float64(s.gaugeTx.Depth()) / float64(stageQueue),
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
