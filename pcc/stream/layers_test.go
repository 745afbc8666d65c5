package stream

// Layered multi-rate serving tests. The acceptance claims under test:
//
//   - wire framing: FlagLayered packets round-trip their layer id (after
//     any tile id), unlayered packets spend no extra bytes, and
//     ControlLayers round-trips a 1-byte subscription;
//   - full-subscription identity: a viewer pinned to every layer emits the
//     exact packet stream of a viewer with no layer config at all — the
//     layered path costs nothing until a layer is actually dropped;
//   - the latch: a narrower pin sheds enhancement layers on the very next
//     send, and a wider one restores them only at a keyframe;
//   - churn safety: viewers flapping layer subscriptions mid-GOP across
//     every control path (config, SetLayers, in-band ControlLayers) while
//     tiled layered frames stream with FEC never corrupt a decode, and
//     NACK rebuilds of layer-truncated sends are byte-deterministic.

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/linksim"
)

func layeredTestOptions(tiles int) codec.Options {
	o := testOptions(codec.IntraInterV1)
	o.Tiles = tiles
	o.Layers = 3
	return o
}

func TestPacketLayeredHeader(t *testing.T) {
	payload := []byte("layer payload")
	h := PacketHeader{
		Flags: FlagLayered, StreamID: 9, FrameIndex: 3, FrameType: codec.IFrame,
		Frag: 1, FragCount: 4, Seq: 77, Layer: 2,
	}
	pkt := MarshalPacket(h, payload)
	if len(pkt) != PacketHeaderSize+LayerIDSize+len(payload) {
		t.Fatalf("layered packet is %d bytes, want %d", len(pkt), PacketHeaderSize+LayerIDSize+len(payload))
	}
	got, err := ParsePacket(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header != h || !bytes.Equal(got.Payload, payload) {
		t.Fatalf("round-trip mismatch: %+v", got.Header)
	}
	// A tiled AND layered packet carries both ids, tile first.
	h.Flags = FlagTiled | FlagLayered
	h.Tile, h.Layer = 5, 1
	pkt = MarshalPacket(h, payload)
	if len(pkt) != PacketHeaderSize+TileIDSize+LayerIDSize+len(payload) {
		t.Fatalf("tiled+layered packet is %d bytes, want %d",
			len(pkt), PacketHeaderSize+TileIDSize+LayerIDSize+len(payload))
	}
	if got, err = ParsePacket(pkt); err != nil || got.Header != h {
		t.Fatalf("tiled+layered round-trip: %+v, %v", got.Header, err)
	}
	// LayerNone round-trips (header fragments).
	h.Layer = LayerNone
	if got, err = ParsePacket(MarshalPacket(h, payload)); err != nil || got.Header.Layer != LayerNone {
		t.Fatalf("LayerNone round-trip: %+v, %v", got.Header, err)
	}
	// An unlayered packet spends no bytes on the layer id.
	h.Flags, h.Tile, h.Layer = 0, 0, 0
	if pkt = MarshalPacket(h, payload); len(pkt) != PacketHeaderSize+len(payload) {
		t.Fatalf("unlayered packet is %d bytes, want %d", len(pkt), PacketHeaderSize+len(payload))
	}
	// A layered packet truncated inside its layer id is structurally bad.
	h.Flags = FlagTiled | FlagLayered
	pkt = MarshalPacket(h, nil)
	if _, err := ParsePacket(pkt[:PacketHeaderSize+TileIDSize]); !errors.Is(err, ErrBadPacket) {
		t.Fatalf("truncated layered packet: %v, want ErrBadPacket", err)
	}
}

func TestControlLayersRoundTrip(t *testing.T) {
	for _, sub := range []uint8{0, 1, 3, 255} {
		want := Control{Kind: ControlLayers, StreamID: 12, Layers: sub}
		pkt, err := ParsePacket(MarshalControl(want))
		if err != nil {
			t.Fatal(err)
		}
		got, err := ParseControl(pkt)
		if err != nil {
			t.Fatal(err)
		}
		if got.Kind != ControlLayers || got.StreamID != want.StreamID || got.Layers != sub {
			t.Fatalf("round-trip mismatch: %+v", got)
		}
	}
	// Anything but exactly one payload byte is malformed.
	for _, payload := range [][]byte{nil, {1, 2}} {
		pkt, err := ParsePacket(MarshalPacket(PacketHeader{
			Flags: FlagControl, FrameType: codec.FrameType(ControlLayers), FragCount: 1,
		}, payload))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseControl(pkt); !errors.Is(err, ErrBadPacket) {
			t.Fatalf("layers payload %d bytes parsed: %v", len(payload), err)
		}
	}

	// Receiver.SendLayers: a receiver behind a LossyPipe sets and clears
	// its viewer's subscription over the pipe's control path. It learns
	// its stream id from the first packet, so one frame goes first.
	opts := layeredTestOptions(0)
	srv := NewServer(context.Background(), ServerConfig{Options: opts})
	defer srv.Cancel()
	pipe := NewLossyPipe(linksim.NewFaultyLink(linksim.WiFi, linksim.FaultProfile{}), ReceiverConfig{Options: opts})
	pipe.AttachServer(srv)
	v, err := srv.Attach(ViewerConfig{PacketOut: pipe.PacketOut})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Submit(context.Background(), testFrames(t, 1)[0]); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); v.Metrics().FramesSent < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the viewer never sent its first frame")
		}
	}
	for _, sub := range []uint8{2, 0} {
		pipe.Receiver().SendLayers(sub)
		v.mu.Lock()
		got := v.layersWant
		v.mu.Unlock()
		if got != sub {
			t.Fatalf("SendLayers(%d) left the viewer's subscription at %d", sub, got)
		}
	}
	if err := pipe.Receiver().Err(); err != nil {
		t.Fatal(err)
	}
}

// layerWatch wraps a viewerSink's PacketOut, tallying layered packets and
// keeping copies of the data packets by sequence number (for the NACK
// rebuild determinism check). Concurrency-safe: PacketOut runs on the
// sender goroutine and, for retransmits, on HandleControl callers.
type layerWatch struct {
	sink *viewerSink

	mu             sync.Mutex
	data, layered  int
	parity         int
	bySeq          map[uint32][]byte
	layeredByFrame map[uint32]bool
}

func newLayerWatch(opts codec.Options) *layerWatch {
	return &layerWatch{
		sink:           newViewerSink(opts),
		bySeq:          make(map[uint32][]byte),
		layeredByFrame: make(map[uint32]bool),
	}
}

func (w *layerWatch) packetOut(ctx context.Context, pkt []byte) error {
	p, err := ParsePacket(pkt)
	if err == nil && p.Header.Flags&FlagControl == 0 {
		w.mu.Lock()
		switch {
		case p.Header.Flags&FlagParity != 0:
			w.parity++
		case p.Header.Flags&FlagRetransmit == 0:
			w.data++
			if p.Header.Flags&FlagLayered != 0 {
				w.layered++
				w.layeredByFrame[p.Header.FrameIndex] = true
			}
			w.bySeq[p.Header.Seq] = append([]byte(nil), pkt...)
		}
		w.mu.Unlock()
	}
	return w.sink.packetOut(ctx, pkt)
}

func (w *layerWatch) counts() (data, layered, parity int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.data, w.layered, w.parity
}

// TestServerLayeredFullSubByteIdentical: with a layered encode published,
// a viewer pinned to all of the frame's layers emits the exact packets of
// a viewer with no layer config at all — same headers (modulo stream id),
// same payload bytes, no FlagLayered anywhere.
func TestServerLayeredFullSubByteIdentical(t *testing.T) {
	frames := testFrames(t, 6)
	opts := layeredTestOptions(0)
	srv := NewServer(context.Background(), ServerConfig{Options: opts, ViewerQueue: 32})

	watches := [2]*layerWatch{newLayerWatch(opts), newLayerWatch(opts)}
	cfgs := [2]ViewerConfig{
		{PacketOut: watches[0].packetOut},                             // no layer config at all
		{PacketOut: watches[1].packetOut, Layers: uint8(opts.Layers)}, // every layer
	}
	views := [2]*Viewer{}
	for i, cfg := range cfgs {
		v, err := srv.Attach(cfg)
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
	for i, w := range watches {
		for _, f := range w.sink.finish(t, len(frames)) {
			if f.Status != FrameDecoded {
				t.Fatalf("viewer %d frame %d: %v (%v)", i, f.Index, f.Status, f.Err)
			}
		}
		if _, layered, _ := w.counts(); layered != 0 {
			t.Fatalf("viewer %d emitted %d FlagLayered packets at full subscription", i, layered)
		}
		if m := views[i].Metrics(); m.SubLayers != 0 || m.LayerDownswitches != 0 {
			t.Fatalf("viewer %d latch moved at full subscription: %+v", i, m)
		}
	}
	// Byte identity, packet by packet: both viewers number their own
	// sequence spaces from 0 over the same frames, so only the stream id
	// bytes (header offsets 4..8) may differ.
	d0, _, _ := watches[0].counts()
	d1, _, _ := watches[1].counts()
	if d0 != d1 || d0 == 0 {
		t.Fatalf("packet counts differ: %d vs %d", d0, d1)
	}
	for seq := uint32(0); seq < uint32(d0); seq++ {
		a, b := watches[0].bySeq[seq], watches[1].bySeq[seq]
		if a == nil || b == nil {
			t.Fatalf("seq %d missing from a capture", seq)
		}
		if !bytes.Equal(a[:4], b[:4]) || !bytes.Equal(a[8:], b[8:]) {
			t.Fatalf("seq %d: packets differ beyond the stream id", seq)
		}
	}
}

// TestViewerLayerLatch drives the subscription latch with explicit pins
// over one GOP-3 stream (I-frames at 0, 3 and 6): a pin to two of the three
// layers after frame 3 truncates the very next send, P-frame 4; clearing it
// after frame 4 waits for the next keyframe, so P-frame 5 still ships
// truncated and I-frame 6 ships whole.
func TestViewerLayerLatch(t *testing.T) {
	frames := testFrames(t, 9)
	opts := layeredTestOptions(0)
	srv := NewServer(context.Background(), ServerConfig{Options: opts, ViewerQueue: 32})
	w := newLayerWatch(opts)
	v, err := srv.Attach(ViewerConfig{PacketOut: w.packetOut})
	if err != nil {
		t.Fatal(err)
	}
	submit := func(lo, hi int) {
		t.Helper()
		for _, f := range frames[lo:hi] {
			if err := srv.Submit(context.Background(), f); err != nil {
				t.Fatal(err)
			}
		}
		waitOutcomes(t, w.sink, hi)
	}

	submit(0, 4)
	v.SetLayers(2)
	submit(4, 5)
	v.SetLayers(0)
	submit(5, 9)
	if m := v.Metrics(); m.SubLayers != 0 || m.LayerDownswitches != 1 || m.LayerUpswitches != 1 {
		t.Fatalf("latch: SubLayers=%d down=%d up=%d, want 0/1/1", m.SubLayers, m.LayerDownswitches, m.LayerUpswitches)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for _, f := range w.sink.finish(t, len(frames)) {
		if f.Status != FrameDecoded {
			t.Fatalf("frame %d: %v (%v)", f.Index, f.Status, f.Err)
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for idx := uint32(0); idx < uint32(len(frames)); idx++ {
		want := idx == 4 || idx == 5
		if w.layeredByFrame[idx] != want {
			t.Fatalf("frame %d layered=%v, want %v", idx, w.layeredByFrame[idx], want)
		}
	}
}

// layeredSessionOptions is the layered serving scenario's encode:
// Intra-Inter-V1 at 1500 / 2500 segments (the steady-state session's
// counts) with three layers, and no rate controller.
func layeredSessionOptions() codec.Options {
	o := codec.OptionsFor(codec.IntraInterV1)
	o.IntraAttr.Segments, o.Inter.Segments = 1500, 2500
	o.Layers = 3
	return o
}

// TestServerLayerSubscriptionSweep serves one layered encode (longdress at
// scale 0.05, 24 frames) to one viewer per explicit subscription over clean
// links: full, the base layer alone, and two of three layers. Every viewer
// decodes every frame, and a truncated subscription costs at most its share
// of the full viewer's wire bytes: 0.528 for the base layer, 0.671 for two
// layers (the measured 0.440 and 0.559 plus 20%). Run with -v for the
// sweep's table.
func TestServerLayerSubscriptionSweep(t *testing.T) {
	t.Parallel()
	frames := videoFrames(t, "longdress", 24, 0.05)
	opts := layeredSessionOptions()
	srv := NewServer(context.Background(), ServerConfig{Options: opts, ViewerQueue: len(frames) + 1})
	subs := []struct {
		sub      uint8 // 0: full
		maxRatio float64
	}{{0, 1}, {1, 0.528}, {2, 0.671}}
	sinks := make([]*viewerSink, len(subs))
	views := make([]*Viewer, len(subs))
	for i, s := range subs {
		sinks[i] = newViewerSink(opts)
		v, err := srv.Attach(ViewerConfig{Layers: s.sub, PacketOut: sinks[i].packetOut})
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
	full := views[0].Metrics().WireBytes
	if full == 0 {
		t.Fatal("the full viewer sent no bytes")
	}
	t.Logf("%-4s %12s %6s %8s %13s", "sub", "wire bytes", "ratio", "decoded", "points/frame")
	for i, s := range subs {
		m := views[i].Metrics()
		decoded, points := 0, 0
		for _, f := range sinks[i].finish(t, len(frames)) {
			if f.Status == FrameDecoded {
				decoded++
				points += f.Cloud.Len()
			}
		}
		ratio := float64(m.WireBytes) / float64(full)
		t.Logf("%-4d %12d %6.3f %5d/%d %13.2f", s.sub, m.WireBytes, ratio, decoded, len(frames), float64(points)/float64(len(frames)))
		if m.FramesSent != int64(len(frames)) || decoded != len(frames) {
			t.Errorf("sub %d: sent %d, decoded %d of %d frames over a clean link", s.sub, m.FramesSent, decoded, len(frames))
		}
		if ratio > s.maxRatio {
			t.Errorf("sub %d: wire ratio %.3f above %.3f", s.sub, ratio, s.maxRatio)
		}
	}
}

// TestServerLayerChurn flips layer subscriptions mid-GOP from racing
// goroutines — via SetLayers and in-band ControlLayers, with out-of-range
// values — while tiled layered frames stream with FEC to four viewers.
// Every frame still decodes on every viewer; the fixed-subscription
// viewer's wire is smaller than the full viewer's; and a NACK rebuild of a
// layer-truncated send reproduces the original packet byte for byte. Run
// under -race in CI.
func TestServerLayerChurn(t *testing.T) {
	frames := testFrames(t, 12)
	opts := layeredTestOptions(4)
	srv := NewServer(context.Background(), ServerConfig{
		Options: opts, ViewerQueue: 64, FEC: FECConfig{GroupLen: 4},
	})

	const nViewers = 4
	watches := make([]*layerWatch, nViewers)
	views := make([]*Viewer, nViewers)
	for i := range watches {
		watches[i] = newLayerWatch(opts)
		cfg := ViewerConfig{PacketOut: watches[i].packetOut}
		if i == 1 {
			cfg.Layers = 1 // base-only from the very first send
		}
		v, err := srv.Attach(cfg)
		if err != nil {
			t.Fatal(err)
		}
		views[i] = v
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 2; i < nViewers; i++ {
		wg.Add(1)
		go func(v *Viewer, i int) {
			defer wg.Done()
			subs := []uint8{1, 2, 3, 0, 200} // 200 exercises the over-clamp
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				sub := subs[(n+i)%len(subs)]
				if i == 2 {
					v.SetLayers(sub)
				} else if err := v.HandleControl(Control{Kind: ControlLayers, StreamID: v.StreamID(), Layers: sub}); err != nil {
					t.Error(err)
					return
				}
				_ = v.Metrics()
			}
		}(views[i], i)
	}

	for _, f := range frames {
		if err := srv.Submit(context.Background(), f); err != nil {
			t.Fatal(err)
		}
	}

	// NACK rebuild determinism: re-slice the newest layer-truncated send of
	// the base-only viewer from its recorded subscription and compare with
	// the captured original, modulo the retransmit flag. Submit returns when
	// the pipeline has taken a frame, not when a viewer has sent it.
	waitOutcomes(t, watches[1].sink, len(frames))
	v := views[1]
	v.tx.mu.Lock()
	if len(v.tx.records) == 0 {
		v.tx.mu.Unlock()
		t.Fatal("viewer 1 has no sent records")
	}
	rec := v.tx.records[len(v.tx.records)-1]
	v.tx.mu.Unlock()
	if rec.view.layers != 1 {
		t.Fatalf("viewer 1's last record has layers=%d, want 1", rec.view.layers)
	}
	for frag := uint32(0); frag < uint32(rec.n); frag++ {
		pkt := v.tx.rebuild(rec.firstSeq + frag)
		if pkt == nil {
			t.Fatalf("rebuild returned nil for cached fragment %d", frag)
		}
		if pkt[3]&FlagRetransmit == 0 {
			t.Fatalf("rebuilt fragment %d lacks FlagRetransmit", frag)
		}
		pkt[3] &^= FlagRetransmit
		watches[1].mu.Lock()
		orig := watches[1].bySeq[rec.firstSeq+frag]
		watches[1].mu.Unlock()
		if !bytes.Equal(pkt, orig) {
			t.Fatalf("rebuilt fragment %d differs from the original send", frag)
		}
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	for i, w := range watches {
		for _, f := range w.sink.finish(t, len(frames)) {
			if f.Status != FrameDecoded {
				t.Fatalf("viewer %d frame %d: %v (%v)", i, f.Index, f.Status, f.Err)
			}
		}
		if err := views[i].Err(); err != nil {
			t.Fatalf("viewer %d: %v", i, err)
		}
	}
	// The no-config viewer: untouched stream, no FlagLayered anywhere.
	if _, layered, _ := watches[0].counts(); layered != 0 {
		t.Fatalf("full viewer saw %d layered packets", layered)
	}
	m0, m1 := views[0].Metrics(), views[1].Metrics()
	if m0.SubLayers != 0 {
		t.Fatalf("full viewer latched a subscription: %+v", m0)
	}
	// The base-only viewer: every data packet layered, strictly less wire.
	d1, layered1, parity1 := watches[1].counts()
	if layered1 != d1 || d1 == 0 {
		t.Fatalf("viewer 1: %d of %d data packets layered", layered1, d1)
	}
	if parity1 == 0 {
		t.Fatal("viewer 1 sent no parity")
	}
	if m1.SubLayers != 1 || m1.LayerDownswitches == 0 {
		t.Fatalf("viewer 1 subscription state: %+v", m1)
	}
	if m1.WireBytes >= m0.WireBytes {
		t.Fatalf("viewer 1 wire bytes %d not below full %d", m1.WireBytes, m0.WireBytes)
	}
}
