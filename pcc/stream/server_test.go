package stream

// Fan-out server tests: one shared encode broadcast to N viewers, each
// with its own receiver, queue, sequence space, and retransmit buffer.
// The acceptance claims under test:
//
//   - encode-once: with N viewers attached the shared pipeline encodes
//     each submitted frame exactly once (no per-viewer re-encode);
//   - late join: a viewer attached mid-GOP starts from the cached
//     keyframe and decodes immediately, with zero encoder refreshes;
//   - coalescing: duplicate NACK seqs answer once per viewer, and
//     concurrent refresh requests cost at most one GOP restart;
//   - isolation: a slow viewer's overflow resolves inside its own queue
//     (forced I-frame resync) while the stream stays decodable.

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
)

// viewerSink wires one viewer's packet stream into its own Receiver,
// collecting frame fates. PacketOut runs on the viewer's sender goroutine
// (and, for retransmits, on whichever goroutine calls HandleControl), so
// ingest is serialized by a mutex.
type viewerSink struct {
	mu       sync.Mutex
	recv     *Receiver
	outcomes []DecodedFrame
}

func newViewerSink(opts codec.Options) *viewerSink {
	vs := &viewerSink{}
	vs.recv = NewReceiver(ReceiverConfig{
		Options: opts,
		OnFrame: func(f DecodedFrame) {
			vs.outcomes = append(vs.outcomes, f)
		},
	})
	return vs
}

func (vs *viewerSink) packetOut(_ context.Context, pkt []byte) error {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	vs.recv.Ingest(pkt)
	return nil
}

func (vs *viewerSink) finish(t *testing.T, totalFrames int) []DecodedFrame {
	t.Helper()
	vs.mu.Lock()
	defer vs.mu.Unlock()
	if err := vs.recv.Finish(totalFrames); err != nil {
		t.Fatalf("receiver finish: %v", err)
	}
	return vs.outcomes
}

// With N viewers attached, every submitted frame is encoded exactly once
// and every viewer decodes the full stream byte-correct — the fan-out
// amortization claim.
func TestServerEncodeOnceFanOut(t *testing.T) {
	frames := testFrames(t, 9)
	opts := testOptions(codec.IntraInterV1)
	const nViewers = 4

	srv := NewServer(context.Background(), ServerConfig{Options: opts, ViewerQueue: 32})
	sinks := make([]*viewerSink, nViewers)
	views := make([]*Viewer, nViewers)
	for i := range sinks {
		sinks[i] = newViewerSink(opts)
		v, err := srv.Attach(ViewerConfig{PacketOut: sinks[i].packetOut})
		if err != nil {
			t.Fatal(err)
		}
		views[i] = v
	}

	for _, f := range frames {
		if err := srv.Submit(context.Background(), f); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	m := srv.Metrics()
	if m.FramesEncoded != int64(len(frames)) {
		t.Fatalf("FramesEncoded = %d with %d viewers, want %d (encode-once)",
			m.FramesEncoded, nViewers, len(frames))
	}
	if m.Viewers != nViewers {
		t.Fatalf("Viewers = %d, want %d", m.Viewers, nViewers)
	}
	for i, vs := range sinks {
		outcomes := vs.finish(t, len(frames))
		if len(outcomes) != len(frames) {
			t.Fatalf("viewer %d: %d outcomes, want %d", i, len(outcomes), len(frames))
		}
		for _, f := range outcomes {
			if f.Status != FrameDecoded {
				t.Fatalf("viewer %d frame %d: %v (%v), want decoded", i, f.Index, f.Status, f.Err)
			}
		}
		vm := views[i].Metrics()
		if vm.FramesSent != int64(len(frames)) {
			t.Fatalf("viewer %d FramesSent = %d, want %d", i, vm.FramesSent, len(frames))
		}
		if vm.FramesDropped != 0 {
			t.Fatalf("viewer %d dropped %d frames on an uncontended queue", i, vm.FramesDropped)
		}
	}
	// Distinct sequence spaces: every viewer numbers its own packets from 0.
	for i, v := range views {
		if vm := v.Metrics(); vm.Packets == 0 {
			t.Fatalf("viewer %d sent no packets", i)
		}
	}
}

// A viewer attached mid-GOP receives the cached keyframe as its frame 0
// (packets marked FlagCached), decodes from it immediately, and triggers
// no encoder refresh — the late-join claim.
func TestServerLateJoinCachedKeyframe(t *testing.T) {
	frames := testFrames(t, 9)
	opts := testOptions(codec.IntraInterV1)

	srv := NewServer(context.Background(), ServerConfig{Options: opts, ViewerQueue: 32})

	// Stream the first six frames (I P P I P P) to completion.
	for _, f := range frames[:6] {
		if err := srv.Submit(context.Background(), f); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.Metrics().FramesEncoded < 6 {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the first six frames to encode")
		}
		time.Sleep(time.Millisecond)
	}

	// Late join: the cache holds the I-frame at source index 3.
	sink := newViewerSink(opts)
	v, err := srv.Attach(ViewerConfig{PacketOut: sink.packetOut})
	if err != nil {
		t.Fatal(err)
	}

	for _, f := range frames[6:] {
		if err := srv.Submit(context.Background(), f); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	vm := v.Metrics()
	// Cached I + the three live frames (I P P) after the join.
	if vm.FramesEnqueued != 4 {
		t.Fatalf("FramesEnqueued = %d, want 4 (cached I + 3 live)", vm.FramesEnqueued)
	}
	if !vm.CachedJoin {
		t.Fatal("CachedJoin = false, want true")
	}
	outcomes := sink.finish(t, int(vm.FramesEnqueued))
	if len(outcomes) == 0 {
		t.Fatal("no outcomes")
	}
	if outcomes[0].Index != 0 || outcomes[0].Type != codec.IFrame {
		t.Fatalf("first frame = index %d type %v, want the cached I-frame at viewer index 0",
			outcomes[0].Index, outcomes[0].Type)
	}
	for _, f := range outcomes {
		if f.Status != FrameDecoded {
			t.Fatalf("frame %d: %v (%v), want decoded — the cached join must be decodable",
				f.Index, f.Status, f.Err)
		}
	}
	if rm := sink.recv.Metrics(); rm.CachedReceived == 0 {
		t.Fatal("receiver saw no FlagCached packets")
	}

	m := srv.Metrics()
	if m.CachedJoins != 1 {
		t.Fatalf("CachedJoins = %d, want 1", m.CachedJoins)
	}
	if m.Refreshes != 0 {
		t.Fatalf("Refreshes = %d, want 0 — a cached join must not force a re-encode", m.Refreshes)
	}
	if m.FramesEncoded != int64(len(frames)) {
		t.Fatalf("FramesEncoded = %d, want %d — the late join re-encoded", m.FramesEncoded, len(frames))
	}
}

// Two viewers NACKing the same lost fragment (with duplicated seqs inside
// each message) get exactly one retransmit each, and their simultaneous
// refresh requests coalesce into a single GOP restart.
func TestServerControlCoalescing(t *testing.T) {
	frames := testFrames(t, 7) // I P P I P P I; the next frame would be P
	opts := testOptions(codec.IntraInterV1)

	srv := NewServer(context.Background(), ServerConfig{Options: opts, ViewerQueue: 32})
	type capture struct {
		mu   sync.Mutex
		pkts [][]byte
	}
	caps := [2]*capture{{}, {}}
	views := [2]*Viewer{}
	for i := range views {
		c := caps[i]
		v, err := srv.Attach(ViewerConfig{PacketOut: func(_ context.Context, p []byte) error {
			c.mu.Lock()
			c.pkts = append(c.pkts, append([]byte(nil), p...))
			c.mu.Unlock()
			return nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		views[i] = v
	}

	for _, f := range frames {
		if err := srv.Submit(context.Background(), f); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for both senders to drain so the retransmit buffers are full
	// and no encode is in flight (the server must still be live: detach
	// frees the retransmit buffer) — and for the last shard to book the
	// relay, which it does only after its viewers have the frame: IFrames
	// is read below.
	deadline := time.Now().Add(10 * time.Second)
	for {
		done := srv.Metrics().FramesEncoded == int64(len(frames))
		for _, v := range views {
			if v.Metrics().FramesSent < int64(len(frames)) {
				done = false
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for senders to drain")
		}
		time.Sleep(time.Millisecond)
	}

	// Both viewers NACK the same sequence number, tripled: one retransmit
	// per viewer, answered from each viewer's own buffer.
	for i, v := range views {
		caps[i].mu.Lock()
		before := len(caps[i].pkts)
		caps[i].mu.Unlock()
		if err := srv.HandleControl(Control{Kind: ControlNACK, StreamID: v.StreamID(),
			Seqs: []uint32{2, 2, 2}}); err != nil {
			t.Fatal(err)
		}
		vm := v.Metrics()
		if vm.Retransmits != 1 {
			t.Fatalf("viewer %d Retransmits = %d after NACK [2,2,2], want 1", i, vm.Retransmits)
		}
		if vm.NACKsReceived != 1 {
			t.Fatalf("viewer %d NACKsReceived = %d, want 1", i, vm.NACKsReceived)
		}
		caps[i].mu.Lock()
		after := len(caps[i].pkts)
		retx := caps[i].pkts[after-1]
		caps[i].mu.Unlock()
		if after-before != 1 {
			t.Fatalf("viewer %d emitted %d packets for NACK [2,2,2], want 1", i, after-before)
		}
		if retx[3]&FlagRetransmit == 0 {
			t.Fatalf("viewer %d retransmit lacks FlagRetransmit", i)
		}
	}

	// Both viewers request a refresh back-to-back: the first arms the
	// encoder, the second coalesces; the next submitted frame opens a
	// fresh GOP exactly once.
	for _, v := range views {
		if err := srv.HandleControl(Control{Kind: ControlRefresh, StreamID: v.StreamID()}); err != nil {
			t.Fatal(err)
		}
	}
	m := srv.Metrics()
	if m.RefreshesCoalesced != 1 {
		t.Fatalf("RefreshesCoalesced = %d after two concurrent refreshes, want 1", m.RefreshesCoalesced)
	}
	if m.Refreshes != 1 {
		t.Fatalf("Refreshes = %d, want 1 — the second request must not restart the GOP again", m.Refreshes)
	}
	iBefore := m.IFrames

	extra := testFrames(t, 8)[7]
	if err := srv.Submit(context.Background(), extra); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	m = srv.Metrics()
	if m.IFrames != iBefore+1 {
		t.Fatalf("IFrames = %d after the refresh, want %d (frame 7 forced to I)", m.IFrames, iBefore+1)
	}

	// Control messages for a detached stream id are dropped, not routed.
	views[0].Close()
	if err := srv.HandleControl(Control{Kind: ControlNACK, StreamID: views[0].StreamID(),
		Seqs: []uint32{2}}); err != nil {
		t.Fatal(err)
	}
	if vm := views[0].Metrics(); vm.NACKsReceived != 1 {
		t.Fatalf("detached viewer NACKsReceived = %d, want 1 (message dropped)", vm.NACKsReceived)
	}
	if vm := views[0].Metrics(); vm.RetxBuffered != 0 {
		t.Fatalf("detached viewer RetxBuffered = %d, want 0 (buffer freed)", vm.RetxBuffered)
	}
}

// Attaching and detaching viewers mid-GOP while the stream runs must be
// race-free: joins see either the cached keyframe or a skipped-P prefix,
// detaches free the retransmit buffer, and nothing panics or deadlocks.
// Run under -race.
func TestServerViewerChurn(t *testing.T) {
	frames := testFrames(t, 9)
	opts := testOptions(codec.IntraInterV1)

	srv := NewServer(context.Background(), ServerConfig{Options: opts, ViewerQueue: 4})
	stable, err := srv.Attach(ViewerConfig{}) // nil PacketOut: account only
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v, err := srv.Attach(ViewerConfig{})
				if err != nil {
					return // server closed while we were attaching
				}
				time.Sleep(100 * time.Microsecond)
				v.Close()
				if vm := v.Metrics(); vm.RetxBuffered != 0 {
					t.Errorf("detached viewer retains %d packets", vm.RetxBuffered)
					return
				}
			}
		}()
	}

	for _, f := range frames {
		if err := srv.Submit(context.Background(), f); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	m := srv.Metrics()
	if m.FramesEncoded != int64(len(frames)) {
		t.Fatalf("FramesEncoded = %d, want %d — churn must not re-encode", m.FramesEncoded, len(frames))
	}
	if sm := stable.Metrics(); sm.FramesSent == 0 {
		t.Fatal("stable viewer sent nothing")
	}
	if _, err := srv.Attach(ViewerConfig{}); err == nil {
		t.Fatal("Attach after Close succeeded")
	}
}

// slowViewerOverflow runs the deterministic shedding trace: a Server whose
// one viewer has a queue of 2 and a PacketOut that blocks on its first call
// until all 9 frames (I P P I P P I P P) are encoded. With the sender stuck
// on frame 0 the broadcast order yields: [1 2] → I3 flushes → [3] → [3 4] →
// P5 sheds P4 → [3 5] → I6 flushes → [6] → [6 7] → P8 sheds P7 → [6 8].
// It returns the closed server, the viewer's metrics and its receiver's
// per-frame outcomes, and the receiver.
func slowViewerOverflow(t *testing.T) (*Server, ViewerMetrics, []DecodedFrame, *Receiver) {
	t.Helper()
	frames := testFrames(t, 9)
	opts := testOptions(codec.IntraInterV1)

	srv := NewServer(context.Background(), ServerConfig{Options: opts, ViewerQueue: 2})

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	sink := newViewerSink(opts)
	gated := func(ctx context.Context, p []byte) error {
		once.Do(func() {
			close(entered)
			<-release
		})
		return sink.packetOut(ctx, p)
	}
	v, err := srv.Attach(ViewerConfig{PacketOut: gated})
	if err != nil {
		t.Fatal(err)
	}

	// Frame 0 reaches the sender, which blocks inside PacketOut with the
	// queue empty — from here the enqueue trace is deterministic.
	if err := srv.Submit(context.Background(), frames[0]); err != nil {
		t.Fatal(err)
	}
	<-entered
	for _, f := range frames[1:] {
		if err := srv.Submit(context.Background(), f); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.Metrics().FramesEncoded < int64(len(frames)) {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the encode to finish")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	return srv, v.Metrics(), sink.finish(t, len(frames)), sink.recv
}

// A slow viewer whose queue overflows is force-resynced: incoming
// I-frames flush the stale backlog, P-frames shed oldest-first, and the
// delivered subset still decodes — slow-viewer isolation in one queue.
// TestReceiverSenderDropIsNotLoss reads the shed frames at the receiver.
func TestServerSlowViewerOverflowResync(t *testing.T) {
	srv, vm, outcomes, _ := slowViewerOverflow(t)
	if vm.FramesSent != 3 {
		t.Fatalf("FramesSent = %d, want 3 (frames 0, 6, 8)", vm.FramesSent)
	}
	if vm.FramesDropped != 6 {
		t.Fatalf("FramesDropped = %d, want 6", vm.FramesDropped)
	}
	if vm.Resyncs != 2 {
		t.Fatalf("Resyncs = %d, want 2 (one per I-frame hitting the full queue)", vm.Resyncs)
	}
	if vm.FramesEnqueued != 9 {
		t.Fatalf("FramesEnqueued = %d, want 9", vm.FramesEnqueued)
	}

	// The surviving subset — I0, I6, P8 — decodes.
	decoded := 0
	for _, f := range outcomes {
		switch f.Index {
		case 0, 6, 8:
			if f.Status != FrameDecoded {
				t.Fatalf("frame %d: %v (%v), want decoded", f.Index, f.Status, f.Err)
			}
			decoded++
		}
	}
	if decoded != 3 {
		t.Fatalf("decoded %d of the surviving frames, want 3", decoded)
	}

	// The shared pipeline itself shed nothing: isolation means the slow
	// viewer's drops stay in the viewer's queue.
	if m := srv.Metrics(); m.Pipeline.Dropped != 0 {
		t.Fatalf("shared pipeline dropped %d frames, want 0", m.Pipeline.Dropped)
	}
}

// A viewer whose transport fails is isolated: its sender stops with the
// error while the server and the healthy viewers finish the stream.
func TestServerViewerErrorIsolation(t *testing.T) {
	frames := testFrames(t, 6)
	opts := testOptions(codec.IntraInterV1)

	srv := NewServer(context.Background(), ServerConfig{Options: opts, ViewerQueue: 32})
	sink := newViewerSink(opts)
	good, err := srv.Attach(ViewerConfig{PacketOut: sink.packetOut})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := srv.Attach(ViewerConfig{PacketOut: func(context.Context, []byte) error {
		return context.DeadlineExceeded // any transport error
	}})
	if err != nil {
		t.Fatal(err)
	}

	for _, f := range frames {
		if err := srv.Submit(context.Background(), f); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if bad.Err() == nil {
		t.Fatal("failed viewer reports no error")
	}
	if srv.Err() != nil {
		t.Fatalf("server failed with a viewer-local error: %v", srv.Err())
	}
	if gm := good.Metrics(); gm.FramesSent != int64(len(frames)) {
		t.Fatalf("healthy viewer sent %d frames, want %d", gm.FramesSent, len(frames))
	}
	outcomes := sink.finish(t, len(frames))
	for _, f := range outcomes {
		if f.Status != FrameDecoded {
			t.Fatalf("healthy viewer frame %d: %v, want decoded", f.Index, f.Status)
		}
	}
}

// TestViewerTailNACKAfterClose: a clean Close keeps every viewer's
// sent-records, so the NACKs a receiver sends for the stream's tail, which
// arrive after Close, are still answered; duplicate sequence numbers in one
// NACK message coalesce, so [s, s, s] answers with exactly one retransmit.
// A 64-byte MTU makes every frame wider than the retransmit budget, so the
// shard cache keeps the newest frame whole, and alone.
func TestViewerTailNACKAfterClose(t *testing.T) {
	frames := testFrames(t, 3)
	opts := testOptions(codec.IntraOnly)

	var mu sync.Mutex
	var pkts [][]byte
	sv, v := oneViewer(t, ServerConfig{Options: opts, MTU: 64}, len(frames),
		func(_ context.Context, p []byte) error {
			mu.Lock()
			pkts = append(pkts, append([]byte(nil), p...))
			mu.Unlock()
			return nil
		})
	for _, f := range frames {
		if err := sv.Submit(context.Background(), f); err != nil {
			t.Fatal(err)
		}
	}
	if err := sv.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(v.shard.retx.frames); n != 1 {
		t.Fatalf("retransmit cache keeps %d frames, want 1", n)
	}

	mu.Lock()
	before := len(pkts)
	orig := pkts[before-1]
	tail, err := ParsePacket(orig)
	mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	seq := tail.Header.Seq
	if err := sv.HandleControl(Control{Kind: ControlNACK, StreamID: v.StreamID(), Seqs: []uint32{seq, seq, seq}}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	emitted := pkts[before:]
	mu.Unlock()
	if len(emitted) != 1 {
		t.Fatalf("NACK [%d,%d,%d] after Close emitted %d packets, want 1", seq, seq, seq, len(emitted))
	}
	want := bytes.Clone(orig)
	want[3] |= FlagRetransmit
	if !bytes.Equal(emitted[0], want) {
		t.Fatal("the tail's retransmit differs from the original packet beyond FlagRetransmit")
	}
	if m := v.Metrics(); m.Retransmits != 1 || m.RetxMisses != 0 {
		t.Fatalf("Retransmits = %d, RetxMisses = %d; want 1 and 0", m.Retransmits, m.RetxMisses)
	}
}
