package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/edgesim"
	"repro/internal/geom"
	"repro/internal/linksim"
	"repro/pcc/stream"
)

// maxSubmissions bounds one run's per-frame bookkeeping (preallocated so
// the generator and the viewers' goroutines never grow a shared slice).
const maxSubmissions = 1 << 16

// clock is the generator's view of time; tests substitute a fake.
type clock struct {
	now   func() time.Time
	sleep func(time.Duration)
}

var wallClock = clock{now: time.Now, sleep: time.Sleep}

// openLoop submits n frames on a fixed schedule: frame i is due at
// start+i*period whatever happened to the earlier ones. submit gets the
// frame's due time — latency is measured from there, so a stall is charged
// to every frame it delays — and the generator's own lateness is recorded.
func openLoop(c clock, start time.Time, period time.Duration, n int, late *dist, submit func(i int, due time.Time) error) error {
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * period)
		if d := due.Sub(c.now()); d > 0 {
			c.sleep(d)
		}
		late.add(ms(c.now().Sub(due)))
		if err := submit(i, due); err != nil {
			return err
		}
	}
	return nil
}

// rxViewer is a viewer the harness actually receives for: its packets go
// to a Receiver (directly, or across a lossy pipe) and every frame's fate
// is recorded with wall-clock times.
type rxViewer struct {
	name string
	run  *serveRun
	v    *stream.Viewer
	rx   *stream.Receiver
	pipe *stream.LossyPipe // nil: packets reach the receiver untouched

	// Per submission index, written on this viewer's sender goroutine.
	firstPkt  []time.Time
	decodedAt []time.Time
	resolved  atomic.Int64
	decoded   atomic.Int64
	delays    dist // DecodedFrame.Delay of decoded frames (receiver's clock)
	// keep is how many leading frames keep their packets and clouds for
	// the correctness checks.
	keep   int
	pkts   [][][]byte
	clouds []*geom.VoxelCloud
	// keepAll records every packet offered to this viewer's link, in
	// order (traced pass: the receiver replay and the FEC byte split).
	keepAll bool
	all     [][]byte
	// offered totals the bytes handed to this viewer's link: data, parity
	// and retransmissions (ViewerMetrics.WireBytes leaves the last out).
	offered int64

	// Tracing state (sender goroutine only).
	curFrame   int
	sendSpan   int32
	lastReturn int64
	stack      []int32
}

// serveRun is one Server with its receiving viewers and per-frame clocks.
type serveRun struct {
	fs   *frameSet
	srv  *stream.Server
	rxs  []*rxViewer
	tr   *tracer
	due  []time.Time // per submission index, written before Submit
	root []int32     // frame root span per submission index (tracing)
	// capacity viewers attached with nil PacketOut.
	capacity  int
	submitted int
	// warm is the server's snapshot after the warm-up pass.
	warm stream.ServerMetrics
}

// frameIndexOf reads the frame index of a data packet from the documented
// wire layout (packet.go: flags at offset 3, frame index at 8). Parsing
// the whole packet here would checksum every payload a second time.
func frameIndexOf(pkt []byte) (idx int, fresh bool) {
	if len(pkt) < stream.PacketHeaderSize {
		return 0, false
	}
	const other = stream.FlagRetransmit | stream.FlagControl | stream.FlagParity | stream.FlagCached
	return int(binary.LittleEndian.Uint32(pkt[8:12])), pkt[3]&other == 0
}

// packetOut is the viewer's PacketOut: note the first packet of each new
// frame, then hand the packet to the receiving side.
func (r *rxViewer) packetOut(ctx context.Context, pkt []byte) error {
	idx, fresh := frameIndexOf(pkt)
	tr := r.run.tr
	if fresh && idx < len(r.firstPkt) && r.firstPkt[idx].IsZero() {
		now := time.Now()
		r.firstPkt[idx] = now
		if tr != nil {
			r.closeSend()
			root := r.run.root[idx]
			at := int64(now.Sub(tr.epoch))
			tr.add("server.pipeline", root, idx, r.name, int64(r.run.due[idx].Sub(tr.epoch)), at)
			r.curFrame, r.sendSpan = idx, tr.beginAt("viewer.send", root, idx, r.name, at)
			r.stack = append(r.stack[:0], r.sendSpan)
		}
	}
	if fresh && idx < r.keep {
		r.pkts[idx] = append(r.pkts[idx], pkt)
	}
	if r.keepAll {
		r.all = append(r.all, pkt)
	}
	r.offered += int64(len(pkt))
	var id int32 = -1
	if tr != nil && len(r.stack) > 0 {
		id = tr.begin("receiver.ingest", r.stack[len(r.stack)-1], r.curFrame, "")
		r.stack = append(r.stack, id)
	}
	var err error
	if r.pipe != nil {
		err = r.pipe.PacketOut(ctx, pkt)
	} else {
		r.rx.Ingest(pkt)
	}
	if id >= 0 {
		tr.end(id)
		r.stack = r.stack[:len(r.stack)-1]
		r.lastReturn = tr.now()
	}
	return err
}

// closeSend ends the current frame's viewer.send span at the return of its
// last PacketOut (known only once the next frame starts, or at the end).
func (r *rxViewer) closeSend() {
	if tr := r.run.tr; tr != nil && r.sendSpan >= 0 && r.lastReturn > 0 {
		tr.endAt(r.sendSpan, r.lastReturn)
		r.sendSpan = -1
	}
}

// onFrame is the receiver's OnFrame: the frame's fate, on wall clock.
func (r *rxViewer) onFrame(f stream.DecodedFrame) {
	tr := r.run.tr
	var id int32 = -1
	if tr != nil && len(r.stack) > 0 {
		id = tr.begin("receiver.on_frame", r.stack[len(r.stack)-1], f.Index, "")
	}
	if f.Status == stream.FrameDecoded && f.Index < len(r.decodedAt) {
		now := time.Now()
		r.decodedAt[f.Index] = now
		r.delays.add(ms(f.Delay))
		if f.Index < r.keep {
			r.clouds[f.Index] = f.Cloud
		}
		if tr != nil {
			root := r.run.root[f.Index]
			at := int64(now.Sub(tr.epoch))
			if f.Index != r.curFrame {
				// Completed by a retransmission that arrived while a later
				// frame was being sent: the wait is this frame's, not theirs.
				tr.add("receiver.recovery_wait", root, f.Index, r.name, int64(r.firstPkt[f.Index].Sub(tr.epoch)), at)
			}
			tr.extendTo(root, at)
		}
		r.decoded.Add(1)
	}
	r.resolved.Add(1)
	tr.end(id)
}

// probeCount is how many of a fan-out workload's viewers receive and
// decode. Five, spread evenly over the attach order (which is the order a
// shard serves its viewers in): a probe's latency is its place in the
// fan-out, so the pooled median sits inside the middle probe's samples and
// p95 inside the last one's, not on a boundary between two probes.
const probeCount = 5

// probeIndex returns the attach index of probe j of a fan-out over the
// given number of viewers, chosen so that probe j is of viewer kind j%4:
// every kind is received and decoded at least once.
func probeIndex(j, viewers int) int {
	i := j*(viewers-1)/(probeCount-1)/4*4 + j%4
	return min(i, viewers-1)
}

// newServeRun builds the workload's Server and attaches its viewers.
func newServeRun(fs *frameSet, tr *tracer) (*serveRun, error) {
	run := &serveRun{
		fs: fs, tr: tr,
		due: make([]time.Time, maxSubmissions),
	}
	if tr != nil {
		run.root = make([]int32, maxSubmissions)
	}
	cfg := stream.ServerConfig{Options: fs.w.opts(), FEC: stream.FECConfig{GroupLen: 4}}
	if fs.w.kind == fanoutLoop {
		// A saturating producer runs ahead of a thousand senders sharing
		// two cores; the deeper queue keeps that run-ahead from shedding
		// frames, so no operation fails (as pccbench fanout-scale does).
		cfg.ViewerQueue = 64
	}
	run.srv = stream.NewServer(context.Background(), cfg)
	opts := run.srv.Options()

	attach := func(name string, vc stream.ViewerConfig, fl *linksim.FaultyLink, feedbackEvery int) error {
		r := &rxViewer{
			name: name, run: run, sendSpan: -1,
			firstPkt:  make([]time.Time, maxSubmissions),
			decodedAt: make([]time.Time, maxSubmissions),
		}
		if len(run.rxs) == 0 {
			// The first receiving viewer keeps the warm-up pass's packets
			// and clouds for the correctness checks.
			r.keep = len(fs.clouds)
			r.pkts = make([][][]byte, r.keep)
			r.clouds = make([]*geom.VoxelCloud, r.keep)
		}
		// P-frames get the I-frames' retry depth: a retransmission crosses
		// the same bursty link, and with the default two retries a seed now
		// and then conceals a frame. No operation of a workload may fail.
		rcfg := stream.ReceiverConfig{Options: opts, OnFrame: r.onFrame, FeedbackEvery: feedbackEvery, PFrameRetries: 6}
		if fl != nil {
			r.pipe = stream.NewLossyPipe(fl, rcfg)
			r.pipe.AttachServer(run.srv)
			r.rx = r.pipe.Receiver()
		} else {
			r.rx = stream.NewReceiver(rcfg)
		}
		vc.PacketOut = r.packetOut
		v, err := run.srv.Attach(vc)
		if err != nil {
			return fmt.Errorf("attach viewer %s: %w", name, err)
		}
		r.v = v
		run.rxs = append(run.rxs, r)
		return nil
	}

	switch fs.w.kind {
	case liveLoop:
		// Viewer A: clean link, full view. Viewer B: the close-up camera
		// behind a bursty lossy link, reporting feedback.
		if err := attach("viewer-A", stream.ViewerConfig{}, nil, 0); err != nil {
			run.srv.Cancel()
			return nil, err
		}
		cam := fs.cam
		lossy := linksim.NewFaultyLink(linksim.WiFi, linksim.FaultProfile{DropRate: 0.02, GEBadLoss: 0.6, Seed: fs.faultSeed})
		if err := attach("viewer-B", stream.ViewerConfig{Viewport: &cam}, lossy, 8); err != nil {
			run.srv.Cancel()
			return nil, err
		}
	case fanoutLoop:
		// A few viewers receive and decode, so latency and correctness are
		// observed under the fan-out load; the others build and account
		// every packet but send none.
		next := 0
		for i := 0; i < fs.w.viewers; i++ {
			if next < probeCount && i == probeIndex(next, fs.w.viewers) {
				next++
				if err := attach(fmt.Sprintf("probe-%d", i), fs.viewerKind(i), nil, 0); err != nil {
					run.srv.Cancel()
					return nil, err
				}
				continue
			}
			if _, err := run.srv.Attach(fs.viewerKind(i)); err != nil {
				run.srv.Cancel()
				return nil, fmt.Errorf("attach capacity viewer %d: %w", i, err)
			}
			run.capacity++
		}
	}
	return run, nil
}

// prepareServe is one whole set-up of a serving workload: inputs, server,
// viewers, and the untimed warm-up pass.
func prepareServe(w workload, seed int64, tr *tracer) (*serveRun, error) {
	fs, err := generate(w, seed)
	if err != nil {
		return nil, err
	}
	run, err := newServeRun(fs, tr)
	if err != nil {
		return nil, err
	}
	if run.warm, err = run.warmUp(); err != nil {
		run.srv.Cancel()
		return nil, err
	}
	return run, nil
}

// submit hands the server submission i (timed from due) and, when tracing,
// opens the frame's root span at its due time.
func (run *serveRun) submit(i int, due time.Time, wait *dist) error {
	if i >= maxSubmissions {
		return errors.New("run exceeds the per-frame bookkeeping")
	}
	run.due[i] = due
	tr := run.tr
	var sub int32 = -1
	if tr != nil {
		at := int64(due.Sub(tr.epoch))
		run.root[i] = tr.beginAt("frame", -1, i, "frame", at)
		tr.extendTo(run.root[i], at)
		sub = tr.begin("server.submit", run.root[i], i, "")
	}
	t0 := time.Now()
	err := run.srv.Submit(context.Background(), run.fs.clouds[i%len(run.fs.clouds)])
	if wait != nil {
		wait.add(ms(time.Since(t0)))
	}
	tr.end(sub)
	run.submitted = i + 1
	if err != nil {
		return fmt.Errorf("submit %d: %w", i, err)
	}
	return nil
}

// viewers is how many viewers each submitted frame goes to.
func (run *serveRun) viewers() int { return run.capacity + len(run.rxs) }

// sentTotals sums the viewers' counters.
type sentTotals struct {
	sent, dropped, wire, parity int64
}

func totalsOf(m stream.ServerMetrics) sentTotals {
	var t sentTotals
	for _, v := range m.PerViewer {
		t.sent += v.FramesSent
		t.dropped += v.FramesDropped
		t.wire += v.WireBytes
		t.parity += v.ParitySent
	}
	return t
}

// warmUp runs one untimed pass over the frame set in lock-step with the
// first receiving viewer (one frame in flight, so nothing queues), then
// waits until every viewer has sent it. Arenas, pools and queues are at
// steady state afterwards and the pass's byte counts are exact.
func (run *serveRun) warmUp() (stream.ServerMetrics, error) {
	lead := run.rxs[0]
	for i := range run.fs.clouds {
		if err := run.submit(i, time.Now(), nil); err != nil {
			return stream.ServerMetrics{}, err
		}
		if err := waitFor(pollFast, func() bool { return lead.resolved.Load() > int64(i) }); err != nil {
			return stream.ServerMetrics{}, fmt.Errorf("warm-up frame %d at %s: %w", i, lead.name, err)
		}
	}
	m, err := run.drained()
	if err != nil {
		return m, fmt.Errorf("warm-up: %w", err)
	}
	return m, nil
}

// waitFor polls cond until it holds. A condition that snapshots a thousand
// viewers is polled coarsely, so that waiting does not compete with the
// senders being waited for.
func waitFor(every time.Duration, cond func() bool) error {
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return errors.New("timed out")
		}
		time.Sleep(every)
	}
	return nil
}

const (
	pollFast = 200 * time.Microsecond // one atomic load
	pollSlow = 2 * time.Millisecond   // a Server.Metrics snapshot
)

// drained waits until every viewer has sent (or shed) every submitted frame.
func (run *serveRun) drained() (stream.ServerMetrics, error) {
	want := int64(run.submitted * run.viewers())
	var m stream.ServerMetrics
	err := waitFor(pollSlow, func() bool {
		m = run.srv.Metrics()
		t := totalsOf(m)
		return t.sent+t.dropped >= want
	})
	if err != nil {
		return m, fmt.Errorf("viewers did not drain: %w", err)
	}
	return m, nil
}

// finish resolves every receiver's tail and closes the server. The
// receivers finish first, once their viewers have sent everything: the
// final recovery rounds then reach a sender that can still retransmit.
func (run *serveRun) finish() error {
	want := int64(run.submitted)
	err := waitFor(pollFast, func() bool {
		for _, r := range run.rxs {
			if m := r.v.Metrics(); m.FramesSent+m.FramesDropped < want && m.Err == nil {
				return false
			}
		}
		return true
	})
	if err != nil {
		run.srv.Cancel()
		return fmt.Errorf("viewers did not drain: %w", err)
	}
	for _, r := range run.rxs {
		r.closeSend()
		var ferr error
		if r.pipe != nil {
			ferr = r.pipe.Finish(run.submitted)
		} else {
			ferr = r.rx.Finish(run.submitted)
		}
		if err == nil && ferr != nil {
			err = fmt.Errorf("finish %s: %w", r.name, ferr)
		}
	}
	if cerr := run.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// checkWarm runs the correctness checks that need kept packets and clouds,
// on the warm-up pass: the lead viewer's decoded clouds equal a direct
// codec.Decoder decode of the same wire bytes, point counts match, and the
// attribute quality clears the floor. It returns the pass's mean PSNR and
// its decoded point total.
func (run *serveRun) checkWarm(ck *checks) (psnr float64, points int64) {
	lead := run.rxs[0]
	dec := codec.NewDecoder(edgesim.NewXavier(edgesim.Mode15W), run.srv.Options())
	n := len(run.fs.clouds)
	for i := 0; i < n; i++ {
		got := lead.clouds[i]
		if got == nil {
			ck.fail("%s: warm-up frame %d not decoded", lead.name, i)
			continue
		}
		var wire []byte
		for _, p := range lead.pkts[i] {
			pk, err := stream.ParsePacket(p)
			if err != nil {
				ck.fail("%s: frame %d: %v", lead.name, i, err)
				continue
			}
			wire = append(wire, pk.Payload...)
		}
		ef, err := codec.ReadFrameFrom(bytes.NewReader(wire))
		var want *geom.VoxelCloud
		if err == nil {
			want, err = dec.DecodeFrame(ef)
		}
		switch {
		case err != nil:
			ck.fail("%s: frame %d: direct decode of the wire bytes: %v", lead.name, i, err)
		case !sameCloud(want, got):
			ck.fail("%s: frame %d: receiver's cloud differs from a direct decode", lead.name, i)
		case int(ef.NumPoints) != got.Len():
			ck.fail("%s: frame %d: decoded %d points, encoder kept %d", lead.name, i, got.Len(), ef.NumPoints)
		}
		points += int64(got.Len())
		psnr += lumaPSNR(run.fs.clouds[i], got)
	}
	psnr /= float64(n)
	if psnr < minPSNR {
		ck.fail("attr_psnr_db %.2f below the %v dB floor", psnr, minPSNR)
	}
	return psnr, points
}

// wireHash is the SHA-256 of the warm-up pass's packets as this viewer
// received them, so byte-identity of the served stream shows across commits.
func (r *rxViewer) wireHash() string {
	h := sha256.New()
	for _, frame := range r.pkts {
		for _, p := range frame {
			h.Write(p)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func sameCloud(a, b *geom.VoxelCloud) bool {
	if a == nil || b == nil || a.Depth != b.Depth || len(a.Voxels) != len(b.Voxels) {
		return false
	}
	for i := range a.Voxels {
		if a.Voxels[i] != b.Voxels[i] {
			return false
		}
	}
	return true
}

// serveOutcome is what the measured part of a serving run produced.
type serveOutcome struct {
	wall, cpu  time.Duration // from the end of the warm-up pass to Close
	frames     int           // submissions after the warm-up pass
	final      stream.ServerMetrics
	late, wait dist
	// The open-loop phase: submissions [pacedFrom, pacedTo), cut into
	// windows starting at winStart; winCPU holds the process CPU clock at
	// each window's first submission and at the end of the run.
	pacedFrom, pacedTo int
	winStart           []int
	winCPU             []time.Duration
	// The saturating phase (fan-out only): totals, and one sample per
	// half cycle of the frame set, taken at the producer — viewer-frames
	// sent per second, CPU per viewer-frame, frames decoded per second by
	// the receiving viewers.
	satWall, satCPU                    time.Duration
	satSent                            int64
	cycleVfps, cycleCPUus, cycleDecFps dist
}

// minWindowSamples is how many latency samples of the lossy viewers a
// window of the open loop holds at least: enough for its p95 to have ten
// samples beyond it.
const minWindowSamples = 200

// drive runs the workload's loop after the warm-up pass, then closes the
// server. A live workload is one open loop of seconds x rate submissions.
// A fan-out workload first saturates Submit from one caller (throughput
// and cost), lets the viewers drain, then runs an open loop at its modest
// rate (latency with every viewer attached, free of the saturating
// phase's standing queues). With frames > 0 each phase is that many
// submissions instead (the traced pass).
func (run *serveRun) drive(seconds float64, frames int) (*serveOutcome, error) {
	n := len(run.fs.clouds)
	w := run.fs.w
	out := &serveOutcome{}
	base := n
	cpu0, start := cpuTime(), time.Now()
	abort := func(err error) (*serveOutcome, error) {
		run.srv.Cancel()
		return nil, err
	}

	paced := frames
	if paced == 0 {
		paced = int(seconds * w.rate)
		if w.kind == fanoutLoop {
			// Whole cycles of the frame set, about two fifths of the run.
			paced = max(1, int(0.4*seconds*w.rate/float64(n)+0.5)) * n
		}
	}
	if w.kind == fanoutLoop {
		window := time.Duration(max(seconds/4, seconds-float64(paced)/w.rate) * float64(time.Second))
		half := max(1, n/2)
		var (
			lastT    = start
			lastCPU  = cpu0
			lastSent = totalsOf(run.warm).sent
			lastDec  = run.decodedTotal()
			sent0    = lastSent
		)
		i := 0
		for ; ; i++ {
			if i > 0 && i%half == 0 {
				// The senders run behind the producer by whatever the queues
				// hold, so a boundary here is just a sampling instant: what
				// counts is what was sent and burnt between two of them.
				now, cpu, sent, dec := time.Now(), cpuTime(), totalsOf(run.srv.Metrics()).sent, run.decodedTotal()
				if sent > lastSent {
					dt := now.Sub(lastT).Seconds()
					out.cycleVfps.add(float64(sent-lastSent) / dt)
					out.cycleCPUus.add(us(cpu-lastCPU) / float64(sent-lastSent))
					out.cycleDecFps.add(float64(dec-lastDec) / dt)
				}
				lastT, lastCPU, lastSent, lastDec = now, cpu, sent, dec
			}
			if i%n == 0 && ((frames == 0 && time.Since(start) >= window && i > 0) || (frames > 0 && i >= frames)) {
				break
			}
			if err := run.submit(base+i, time.Now(), &out.wait); err != nil {
				return abort(err)
			}
		}
		m, err := run.drained()
		if err != nil {
			return abort(err)
		}
		out.satWall, out.satCPU, out.satSent = time.Since(start), cpuTime()-cpu0, totalsOf(m).sent-sent0
		base += i
	}

	out.pacedFrom, out.pacedTo = base, base+paced
	windows := max(1, paced*len(run.lossyViewers())/minWindowSamples)
	for k := 0; k < windows; k++ {
		out.winStart = append(out.winStart, base+k*paced/windows)
	}
	period := time.Duration(float64(time.Second) / w.rate)
	err := openLoop(wallClock, time.Now(), period, paced, &out.late, func(i int, due time.Time) error {
		if k := len(out.winCPU); k < windows && base+i == out.winStart[k] {
			out.winCPU = append(out.winCPU, cpuTime())
		}
		return run.submit(base+i, due, &out.wait)
	})
	if err != nil {
		return abort(err)
	}
	if err := run.finish(); err != nil {
		return nil, err
	}
	out.winCPU = append(out.winCPU, cpuTime())
	out.frames = run.submitted - n
	out.wall = time.Since(start)
	out.cpu = cpuTime() - cpu0
	out.final = run.srv.Metrics()
	return out, nil
}

// decodedTotal sums the frames the receiving viewers have decoded so far.
func (run *serveRun) decodedTotal() int64 {
	var n int64
	for _, r := range run.rxs {
		n += r.decoded.Load()
	}
	return n
}

// lossyViewers are the receiving viewers behind a lossy link.
func (run *serveRun) lossyViewers() []*rxViewer {
	var lossy []*rxViewer
	for _, r := range run.rxs {
		if r.pipe != nil {
			lossy = append(lossy, r)
		}
	}
	return lossy
}

// latencies pools, over the given receiving viewers, the per-frame times of
// submissions [from, to): from due to first packet out (the sender side)
// and from due to decoded.
func (run *serveRun) latencies(rxs []*rxViewer, from, to int) (first, g2g dist) {
	for _, r := range rxs {
		for i := from; i < to; i++ {
			if !r.firstPkt[i].IsZero() {
				first.add(ms(r.firstPkt[i].Sub(run.due[i])))
			}
			if !r.decodedAt[i].IsZero() {
				g2g.add(ms(r.decodedAt[i].Sub(run.due[i])))
			}
		}
	}
	return first, g2g
}

// bestLatencies returns a live workload's undisturbed latencies. The open
// loop replays the same frames cycle after cycle to the same two viewers,
// so — as in the codec loops — each (receiving viewer, frame position)
// keeps its fastest cycle: what the pipeline takes for that frame to that
// viewer when the host leaves it alone, which is what repeats from run to
// run. It does not fit a fan-out: the order in which a thousand senders get
// to run differs from cycle to cycle, so there a cycle is another draw, not
// a replica, and every frame counts.
func (run *serveRun) bestLatencies(out *serveOutcome) (first, g2g *positional) {
	n := len(run.fs.clouds)
	first, g2g = newPositional(n*len(run.rxs)), newPositional(n*len(run.rxs))
	for k, r := range run.rxs {
		for i := out.pacedFrom; i < out.pacedTo; i++ {
			if !r.firstPkt[i].IsZero() {
				first.add(k*n+i%n, ms(r.firstPkt[i].Sub(run.due[i])))
			}
			if !r.decodedAt[i].IsZero() {
				g2g.add(k*n+i%n, ms(r.decodedAt[i].Sub(run.due[i])))
			}
		}
	}
	return first, g2g
}

// windowStats holds one value per window of the open loop; the reported
// figure is the median window. A host stall spoils the windows it falls
// in, not the run: figures pooled over the whole run would move with how
// much of it the host happened to disturb.
type windowStats struct {
	// lossyP95 is the p95 of due-to-decoded over every frame of the viewers
	// behind a lossy link. Their cycles are not replicas of each other —
	// which frames lose packets changes — and the retransmission round is
	// the very tail being measured, so no frame is left out. (Pooling the
	// clean viewers in would put p95 on the knee between "repaired in
	// flight" and "one NACK round later": about a tenth of the lossy
	// viewer's frames need that round, a twentieth of the pool, and the
	// figure would flip from seed to seed.)
	lossyP95 dist
	cpuUs    dist
	samples  int
}

func (run *serveRun) windowStats(out *serveOutcome) *windowStats {
	ws := &windowStats{}
	lossy := run.lossyViewers()
	for k, from := range out.winStart {
		to := out.pacedTo
		if k+1 < len(out.winStart) {
			to = out.winStart[k+1]
		}
		if len(lossy) > 0 {
			_, g2g := run.latencies(lossy, from, to)
			ws.lossyP95.add(g2g.p(0.95))
			ws.samples += g2g.n()
		}
		ws.cpuUs.add(us(out.winCPU[k+1]-out.winCPU[k]) / float64((to-from)*run.viewers()))
	}
	return ws
}

// checkCounts applies the bookkeeping identities every serving run must
// hold and returns how many viewer-frames were not decoded.
func (run *serveRun) checkCounts(out *serveOutcome, ck *checks) (notDecoded int64) {
	submitted := int64(run.submitted)
	if out.final.FramesEncoded != submitted {
		ck.fail("encode-once: server encoded %d frames for %d submissions", out.final.FramesEncoded, submitted)
	}
	for _, v := range out.final.PerViewer {
		if v.FramesSent+v.FramesDropped != submitted {
			ck.fail("viewer %d: sent %d + dropped %d != submitted %d", v.StreamID, v.FramesSent, v.FramesDropped, submitted)
		}
		if v.Err != nil {
			ck.fail("viewer %d: %v", v.StreamID, v.Err)
		}
	}
	for _, r := range run.rxs {
		m := r.rx.Metrics()
		if m.Frames() != submitted {
			ck.fail("%s: decoded %d + concealed %d + skipped %d != submitted %d",
				r.name, m.FramesDecoded, m.FramesConcealed, m.FramesSkipped, submitted)
		}
		if err := r.rx.Err(); err != nil {
			ck.fail("%s: control path: %v", r.name, err)
		}
		notDecoded += submitted - m.FramesDecoded
	}
	if notDecoded > 0 {
		ck.fail("%d viewer-frames were concealed or skipped", notDecoded)
		ck.failed += notDecoded - 1
	}
	if d := totalsOf(out.final).dropped; d > 0 {
		ck.fail("%d viewer-frames were shed by viewer queues", d)
		ck.failed += d - 1
	}
	return notDecoded
}

// runServe measures a serving workload, set up and warm, with tracing off.
func runServe(run *serveRun, seconds float64, e2e *metricSet, ck *checks, info map[string]string) (attempted int64, err error) {
	fs := run.fs
	out, err := run.drive(seconds, 0)
	if err != nil {
		return 0, err
	}
	psnr, points := run.checkWarm(ck)
	notDecoded := run.checkCounts(out, ck)

	ws := run.windowStats(out)
	firstAll, pooled := run.latencies(run.rxs, out.pacedFrom, out.pacedTo)
	first, g2g := &firstAll, &pooled
	if fs.w.kind == liveLoop {
		f, g := run.bestLatencies(out)
		first, g2g = f.best(), g.best()
	}
	warm, final := totalsOf(run.warm), totalsOf(out.final)
	rxFrames := int64(run.submitted * len(run.rxs))
	viewers := float64(run.viewers())

	switch {
	case fs.w.kind == fanoutLoop && out.cycleVfps.n() >= 4:
		// A saturating closed loop has no per-frame time to take the best
		// of; its unit is the half cycle. The host runs whole seconds a
		// quarter slower now and then, so the figures are the good quartile
		// of the samples — what the machine does undisturbed, which is what
		// repeats — not the mean over whatever the host did during this run.
		vfps := out.cycleVfps.p(0.75)
		e2e.setN("encode_fps", vfps/viewers, out.cycleVfps.n())
		e2e.setN("decode_fps", out.cycleDecFps.p(0.75), out.cycleDecFps.n())
		e2e.setN("serve_viewer_fps", vfps, out.cycleVfps.n())
		e2e.setN("serve_cpu_us_per_viewer_frame", out.cycleCPUus.p(0.25), out.cycleCPUus.n())
	case fs.w.kind == fanoutLoop:
		vfps := float64(out.satSent) / out.satWall.Seconds()
		e2e.setN("encode_fps", vfps/viewers, int(out.satSent))
		e2e.setN("decode_fps", vfps/viewers*float64(len(run.rxs)), int(out.satSent))
		e2e.setN("serve_viewer_fps", vfps, int(out.satSent))
		e2e.setN("serve_cpu_us_per_viewer_frame", us(out.satCPU)/float64(out.satSent), int(out.satSent))
	default:
		fps := float64(out.frames) / out.wall.Seconds()
		e2e.setN("encode_fps", fps, out.frames)
		e2e.setN("decode_fps", float64(pooled.n())/out.wall.Seconds(), pooled.n())
		e2e.setN("serve_viewer_fps", fps*viewers, out.frames*run.viewers())
		e2e.setN("serve_cpu_us_per_viewer_frame", ws.cpuUs.p(0.5), ws.cpuUs.n())
	}
	e2e.setN("encode_p50_ms", first.p(0.5), firstAll.n())
	e2e.setN("encode_p95_ms", first.p(0.95), firstAll.n())
	e2e.set("bits_per_point", float64(run.warm.Pipeline.WireBytes*8)/float64(points))
	e2e.set("attr_psnr_db", psnr)
	e2e.setN("g2g_p50_ms", g2g.p(0.5), pooled.n())
	if ws.lossyP95.n() > 0 {
		e2e.setN("g2g_p95_ms", ws.lossyP95.p(0.5), ws.samples)
	} else {
		e2e.setN("g2g_p95_ms", g2g.p(0.95), pooled.n())
	}
	e2e.set("decoded_ratio", float64(rxFrames-notDecoded)/float64(rxFrames))
	if fs.w.kind == fanoutLoop {
		// The warm-up cycle's bytes are exact; the saturating phase ends on
		// the clock, so its byte total differs from run to run.
		e2e.set("egress_bytes_per_viewer_frame", float64(warm.wire)/float64(warm.sent))
	} else {
		// A fixed schedule submits a fixed count, so the whole run is exact;
		// every byte offered to the links counts, retransmissions included.
		var offered int64
		for _, r := range run.rxs {
			offered += r.offered
		}
		e2e.set("egress_bytes_per_viewer_frame", float64(offered)/float64(final.sent))
	}
	if out.satSent > 0 {
		info["raw_serve_viewer_fps"] = fmt.Sprintf("%.1f over the whole saturating phase, drain included", float64(out.satSent)/out.satWall.Seconds())
		info["raw_serve_cpu_us_per_viewer_frame"] = fmt.Sprintf("%.2f over the whole saturating phase", us(out.satCPU)/float64(out.satSent))
	}
	info["stream_sha256"] = run.rxs[0].wireHash()
	info["windows"] = fmt.Sprintf("%d of the open loop, the median one reported (CPU; p95 across the lossy link)", len(out.winStart))
	info["raw_g2g_p50_ms"] = fmt.Sprintf("%.3f (n=%d, every frame of the open loop, host stalls included)", pooled.p(0.5), pooled.n())
	info["raw_g2g_p95_ms"] = fmt.Sprintf("%.3f (n=%d, every frame of the open loop, host stalls included)", pooled.p(0.95), pooled.n())
	info["raw_g2g_p99_ms"] = fmt.Sprintf("%.3f (n=%d, every frame of the open loop, host stalls included)", pooled.p(0.99), pooled.n())
	info["gen_late_p99_ms"] = fmt.Sprintf("%.3f", out.late.p(0.99))
	info["pipeline_drops"] = fmt.Sprint(out.final.Pipeline.Dropped)
	info["viewer_frames_dropped"] = fmt.Sprint(final.dropped)
	return int64(run.submitted * run.viewers()), nil
}

// servePass is the traced pass of a serving workload: a brief rerun with
// spans around Submit, the server's pipeline wait, each viewer's send and
// every receiver ingest, then the layers' public counters.
func servePass(fs *frameSet, cfg config, tr *tracer, pl *metricSet, ck *checks, info map[string]string) (int64, error) {
	frames := tracedLiveFrames
	if fs.w.kind == fanoutLoop {
		frames = tracedFanoutFrames
	}
	if cfg.smoke {
		frames = len(fs.clouds)
	}
	encodeOnly, err := encodeOnlyCPU(fs, frames)
	if err != nil {
		return 0, err
	}
	run, err := newServeRun(fs, tr)
	if err != nil {
		return 0, err
	}
	for _, r := range run.rxs {
		r.keepAll = true
	}
	if run.warm, err = run.warmUp(); err != nil {
		run.srv.Cancel()
		return 0, err
	}
	out, err := run.drive(0, frames)
	if err != nil {
		return 0, err
	}
	run.checkCounts(out, ck)

	_, g2g := run.latencies(run.rxs, out.pacedFrom, out.pacedTo)
	warm, final := totalsOf(run.warm), totalsOf(out.final)
	windowSent := float64(final.sent - warm.sent)
	lossy := run.rxs[len(run.rxs)-1]

	pl.setN("server.submit_wait_p95_ms", out.wait.p(0.95), out.wait.n())
	var watermark int64
	for _, q := range out.final.Pipeline.Queues {
		watermark = max(watermark, q.MaxDepth)
	}
	pl.set("server.queue_watermark", float64(watermark))
	pl.set("server.pipeline_drops", float64(out.final.Pipeline.Dropped))
	pl.set("server.encode_only_cpu_ms_per_frame", ms(encodeOnly))
	pl.set("viewer.marginal_cpu_us_per_frame", ratio(us(out.cpu)-us(encodeOnly)*float64(out.frames), windowSent))
	lo, hi := int64(-1), int64(0)
	for _, sh := range out.final.PerShard {
		if lo < 0 || sh.Enqueues < lo {
			lo = sh.Enqueues
		}
		hi = max(hi, sh.Enqueues)
	}
	pl.set("shard.skew_x", ratio(float64(hi), float64(lo)))

	var resyncs, retxMiss, culled, culledBytes, camWire, camSent, down int64
	var link time.Duration
	var txJ float64
	for _, v := range out.final.PerViewer {
		resyncs += v.Resyncs
		retxMiss += v.RetxMisses
		down += v.LayerDownswitches
		link += v.LinkTime
		txJ += v.TxEnergyJ
		if v.HasViewport {
			culled += v.TilesCulled
			culledBytes += v.CulledBytes
			camWire += v.WireBytes
			camSent += v.FramesSent
		}
	}
	pl.set("viewer.frames_dropped", float64(final.dropped))
	pl.set("viewer.resyncs", float64(resyncs))
	pl.set("viewer.retx_misses", float64(retxMiss))
	pl.set("viewer.tiles_culled_per_frame", ratio(float64(culled), float64(camSent)))
	pl.set("viewer.culled_bytes_ratio", ratio(float64(culledBytes), float64(culledBytes+camWire)))
	pl.set("viewer.layer_downswitches", float64(down))
	pl.set("linksim.sim_link_ms_per_frame", ratio(ms(link), float64(final.sent)))
	pl.set("linksim.sim_tx_mj_per_frame", ratio(txJ*1e3, float64(final.sent)))

	var dataB, parityB, repairs, parityRx, nacks, lost, recovered, concealed, skipped int64
	for _, r := range run.rxs {
		for _, p := range r.all {
			if p[3]&stream.FlagParity != 0 {
				parityB += int64(len(p))
			} else {
				dataB += int64(len(p))
			}
		}
		m := r.rx.Metrics()
		repairs += m.FEC.ParityRepairs
		parityRx += m.FEC.ParityReceived
		nacks += m.NACKsSent
		lost += m.PacketsLost
		recovered += m.PacketsRecovered
		concealed += m.FramesConcealed
		skipped += m.FramesSkipped
	}
	pl.set("fec.parity_per_frame", ratio(float64(final.parity), float64(final.sent)))
	pl.set("fec.overhead_ratio", ratio(float64(parityB), float64(dataB)))
	pl.set("fec.repair_ratio", ratio(float64(repairs), float64(parityRx)))
	pl.set("receiver.nacks_per_frame", ratio(float64(nacks), float64(run.submitted*len(run.rxs))))
	pl.set("receiver.recovered_ratio", ratio(float64(recovered), float64(lost)))
	pl.set("receiver.concealed_frames", float64(concealed))
	pl.set("receiver.skipped_frames", float64(skipped))
	pl.setN("receiver.recovery_delay_p95_ms", lossy.delays.p(0.95), lossy.delays.n())
	ns, n := lossy.replay(run.srv.Options(), fs.faultSeed)
	pl.setN("receiver.ingest_ns_per_pkt", ratio(float64(ns), float64(n)), n)

	pl.setN("harness.gen_late_p99_ms", out.late.p(0.99), out.late.n())
	pl.setN("harness.g2g_p99_ms", g2g.p(0.99), g2g.n())
	_, clean := run.latencies(run.rxs[:1], out.pacedFrom, out.pacedTo)
	pl.setN("harness.clean_g2g_p95_ms", clean.p(0.95), clean.n())
	if lossy.pipe != nil {
		_, d := run.latencies([]*rxViewer{lossy}, out.pacedFrom, out.pacedTo)
		pl.setN("harness.lossy_g2g_p95_ms", d.p(0.95), d.n())
	}
	info["traced_g2g_highest_supported"] = fmt.Sprintf("p%g (n=%d)", g2g.highest()*100, g2g.n())
	return int64(run.submitted * run.viewers()), nil
}

// replay feeds this viewer's recorded packet trace into a fresh Receiver
// and times the ingest calls — the receiver's whole cost per packet,
// reassembly, repair and decode included. A lossy viewer's trace crosses a
// fresh link with the same fault seed first, so the same packets are lost.
func (r *rxViewer) replay(opts codec.Options, faultSeed int64) (ns int64, n int) {
	rx := stream.NewReceiver(stream.ReceiverConfig{Options: opts})
	var fl *linksim.FaultyLink
	if r.pipe != nil {
		prof := r.pipe.FaultyLink().Profile()
		prof.Seed = faultSeed
		fl = linksim.NewFaultyLink(r.pipe.FaultyLink().Link(), prof)
	}
	for _, p := range r.all {
		arrive := [][]byte{p}
		if fl != nil {
			var err error
			if arrive, _, err = fl.Send(p); err != nil {
				continue
			}
		}
		for _, a := range arrive {
			t0 := time.Now()
			rx.Ingest(a)
			ns += int64(time.Since(t0))
			n++
		}
	}
	return ns, n
}

// encodeOnlyCPU prices the shared encode alone: the same Server with no
// viewer attached, CPU per submitted frame after a warm-up cycle.
func encodeOnlyCPU(fs *frameSet, frames int) (time.Duration, error) {
	srv := stream.NewServer(context.Background(), stream.ServerConfig{Options: fs.w.opts(), FEC: stream.FECConfig{GroupLen: 4}})
	n := len(fs.clouds)
	submit := func(from, count int) error {
		for i := from; i < from+count; i++ {
			if err := srv.Submit(context.Background(), fs.clouds[i%n]); err != nil {
				return fmt.Errorf("encode-only submit: %w", err)
			}
		}
		return waitFor(pollFast, func() bool { return srv.Metrics().FramesEncoded >= int64(from+count) })
	}
	if err := submit(0, n); err != nil {
		srv.Cancel()
		return 0, err
	}
	cpu0 := cpuTime()
	if err := submit(n, frames); err != nil {
		srv.Cancel()
		return 0, err
	}
	cpu := cpuTime() - cpu0
	if err := srv.Close(); err != nil {
		return 0, fmt.Errorf("encode-only close: %w", err)
	}
	return cpu / time.Duration(frames), nil
}
