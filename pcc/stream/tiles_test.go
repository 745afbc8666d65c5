package stream

// Viewport-adaptive tile fan-out tests. The acceptance claims under test:
//
//   - wire framing: FlagTiled packets round-trip their tile id, untiled
//     packets carry no extra bytes, and ControlViewport round-trips a
//     camera (rejecting non-finite fields);
//   - plan equivalence: gathering a culled frame fragment-by-fragment
//     from the shared payload's spans reproduces, byte for byte, the
//     frame a full rewrite would produce — at any MTU — and its parity
//     bodies are checked over it by TestParityBodyRecoversAnyMember;
//   - per-viewer drop: a viewer with a camera receives fewer bytes and
//     fewer points than a viewer without one, both decode every frame,
//     and the no-viewport viewer's stream carries no FlagTiled packet;
//   - NACKs on culled frames rebuild from the recorded masks;
//   - churn safety: viewers flipping cameras mid-GOP (locally and via
//     ControlViewport) while frames stream never corrupt a decode.

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/edgesim"
	"repro/internal/viewport"
)

func tiledTestOptions() codec.Options {
	o := testOptions(codec.IntraInterV1)
	o.Tiles = 4
	return o
}

// awayCamera sees nothing of the lattice (far eye, 1-unit range), so every
// tile is culled and the nearest-tile fallback keeps exactly one.
func awayCamera() viewport.Camera {
	return viewport.Camera{
		Pos:        [3]float64{-4096, -4096, -4096},
		Dir:        [3]float64{0, 0, 1},
		FOVDegrees: 60,
		MaxDist:    1,
	}
}

func TestPacketTiledHeader(t *testing.T) {
	payload := []byte("tile payload")
	h := PacketHeader{
		Flags: FlagTiled, StreamID: 9, FrameIndex: 3, FrameType: codec.IFrame,
		Frag: 1, FragCount: 4, Seq: 77, Tile: 2,
	}
	pkt := MarshalPacket(h, payload)
	if len(pkt) != PacketHeaderSize+TileIDSize+len(payload) {
		t.Fatalf("tiled packet is %d bytes, want %d", len(pkt), PacketHeaderSize+TileIDSize+len(payload))
	}
	got, err := ParsePacket(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header != h || !bytes.Equal(got.Payload, payload) {
		t.Fatalf("round-trip mismatch: %+v", got.Header)
	}
	// TileNone round-trips too (header/directory fragments).
	h.Tile = TileNone
	if got, err = ParsePacket(MarshalPacket(h, payload)); err != nil || got.Header.Tile != TileNone {
		t.Fatalf("TileNone round-trip: %+v, %v", got.Header, err)
	}
	// An untiled packet spends no bytes on the tile id.
	h.Flags, h.Tile = 0, 0
	pkt = MarshalPacket(h, payload)
	if len(pkt) != PacketHeaderSize+len(payload) {
		t.Fatalf("untiled packet is %d bytes, want %d", len(pkt), PacketHeaderSize+len(payload))
	}
	// A tiled packet truncated inside its tile id is structurally bad.
	h.Flags = FlagTiled
	pkt = MarshalPacket(h, nil)
	if _, err := ParsePacket(pkt[:PacketHeaderSize+1]); !errors.Is(err, ErrBadPacket) {
		t.Fatalf("truncated tiled packet: %v, want ErrBadPacket", err)
	}
}

func TestControlViewportRoundTrip(t *testing.T) {
	want := Control{
		Kind:     ControlViewport,
		StreamID: 12,
		Camera: viewport.Camera{
			Pos: [3]float64{1.5, -2, 4096}, Dir: [3]float64{0, 0.25, -1},
			FOVDegrees: 72.5, MaxDist: 900,
		},
	}
	pkt, err := ParsePacket(MarshalControl(want))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseControl(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != ControlViewport || got.StreamID != want.StreamID || got.Camera != want.Camera {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
	// Non-finite camera fields are rejected, not installed.
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		c := want
		c.Camera.FOVDegrees = bad
		pkt, err := ParsePacket(MarshalControl(c))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseControl(pkt); !errors.Is(err, ErrBadPacket) {
			t.Fatalf("non-finite viewport parsed: %v", err)
		}
	}
	// The clear convention: FOVDegrees <= 0 round-trips (the sender-side
	// SetViewport interprets it as "remove the viewport").
	c := want
	c.Camera = viewport.Camera{}
	pkt, _ = ParsePacket(MarshalControl(c))
	if got, err := ParseControl(pkt); err != nil || got.Camera.FOVDegrees != 0 {
		t.Fatalf("clear round-trip: %+v, %v", got, err)
	}
}

// tiledTestFrame encodes one real tiled frame and parses its layout.
func tiledTestFrame(t *testing.T) ([]byte, *codec.FrameLayout) {
	t.Helper()
	enc := codec.NewEncoder(edgesim.NewXavier(edgesim.Mode15W), tiledTestOptions())
	ef, _, err := enc.EncodeFrame(testFrames(t, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ef.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()
	l := codec.ParseFrameLayout(wire)
	if l == nil {
		t.Fatal("ParseFrameLayout returned nil for a tiled frame")
	}
	if len(l.Tiles) < 2 {
		t.Fatalf("need >=2 tiles, got %d", len(l.Tiles))
	}
	return wire, l
}

// culledTestPlan is the away camera's plan of a real tiled frame: every
// tile but the fallback one dropped.
func culledTestPlan(t *testing.T) *viewPlan {
	t.Helper()
	wire, l := tiledTestFrame(t)
	omit, coarse := tileMasks(l, awayCamera())
	return buildViewPlan(l, wire, omit, coarse, 0)
}

// TestTileMasksAndViewPlan checks the mask policy and the packets cut from
// a culled plan against a straight rewrite of a real tiled frame.
func TestTileMasksAndViewPlan(t *testing.T) {
	opts := tiledTestOptions()
	wire, l := tiledTestFrame(t)

	// A camera that sees everything culls nothing.
	if o, c := tileMasks(l, viewport.Camera{FOVDegrees: 400}); o|c != 0 {
		t.Fatalf("all-seeing camera produced masks %x/%x", o, c)
	}
	// A camera that sees nothing keeps exactly one tile (the fallback).
	omit, coarse := tileMasks(l, awayCamera())
	if coarse != 0 || bits.OnesCount64(omit) != len(l.Tiles)-1 {
		t.Fatalf("away camera masks omit=%x coarse=%x with %d tiles", omit, coarse, len(l.Tiles))
	}

	plan := buildViewPlan(l, wire, omit, coarse, 0)
	// The culled frame, written out the long way: the rewritten header,
	// then the kept tiles' geometry chunks, then their attribute chunks.
	want := l.RewriteHeaderSub(wire, omit, coarse, 0)
	for ti := range l.Tiles {
		if omit&(1<<uint(ti)) == 0 {
			want = append(want, wire[l.GeomOff[ti]:l.GeomOff[ti+1]]...)
		}
	}
	for ti := range l.Tiles {
		if (omit|coarse)&(1<<uint(ti)) == 0 {
			want = append(want, wire[l.AttrOff[ti]:l.AttrOff[ti+1]]...)
		}
	}
	if plan.total != len(want) || plan.total >= len(wire) {
		t.Fatalf("plan total %d (spans %d, full frame %d)", plan.total, len(want), len(wire))
	}
	// The culled frame is a valid container and decodes to the kept points.
	rt, err := codec.ReadFrameFrom(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("culled frame rejected: %v", err)
	}
	dec := codec.NewDecoder(edgesim.NewXavier(edgesim.Mode15W), opts)
	vc, err := dec.DecodeFrame(rt)
	if err != nil {
		t.Fatalf("culled frame decode: %v", err)
	}
	keptPts := 0
	for ti, info := range l.Tiles {
		if omit&(1<<uint(ti)) == 0 {
			keptPts += int(info.Points)
		}
	}
	if vc.Len() != keptPts {
		t.Fatalf("culled decode has %d points, want %d", vc.Len(), keptPts)
	}

	// The packets cut from the plan carry the rewrite byte-for-byte at any
	// MTU, in order, the first fragment starting in the header (TileNone).
	for _, mtu := range []int{7, 256, 1400, MaxPayload} {
		pkts, err := plan.packets(PacketHeader{Flags: FlagTiled, FrameType: l.Type, Seq: 40}, mtu)
		if err != nil {
			t.Fatalf("mtu %d: %v", mtu, err)
		}
		var got []byte
		for i, raw := range pkts {
			p, err := ParsePacket(raw)
			if err != nil {
				t.Fatalf("mtu %d packet %d: %v", mtu, i, err)
			}
			h := p.Header
			if int(h.Frag) != i || int(h.FragCount) != len(pkts) || h.Seq != 40+uint32(i) {
				t.Fatalf("mtu %d packet %d: frag/seq %+v", mtu, i, h)
			}
			if i == 0 && h.Tile != TileNone {
				t.Fatalf("mtu %d: first fragment tile %d, want TileNone", mtu, h.Tile)
			}
			got = append(got, p.Payload...)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("mtu %d: packetized frame differs from rewrite", mtu)
		}
	}
}

// flagWatch wraps a viewerSink's PacketOut, tallying data/tiled/parity
// packets as they pass.
type flagWatch struct {
	sink                *viewerSink
	data, tiled, parity atomic.Int64
	tileIDs             atomic.Int64 // data fragments starting inside a tile
}

func (w *flagWatch) packetOut(ctx context.Context, pkt []byte) error {
	p, err := ParsePacket(pkt)
	if err == nil && p.Header.Flags&FlagControl == 0 {
		switch {
		case p.Header.Flags&FlagParity != 0:
			w.parity.Add(1)
			if p.Header.Flags&FlagTiled != 0 {
				return errors.New("parity packet carries FlagTiled")
			}
		default:
			w.data.Add(1)
			if p.Header.Flags&FlagTiled != 0 {
				w.tiled.Add(1)
				if p.Header.Tile != TileNone {
					w.tileIDs.Add(1)
				}
			}
		}
	}
	return w.sink.packetOut(ctx, pkt)
}

func waitOutcomes(t *testing.T, vs *viewerSink, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		vs.mu.Lock()
		got := len(vs.outcomes)
		vs.mu.Unlock()
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d outcomes (have %d)", n, got)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestServerViewportCulling is the per-viewer drop acceptance test: one
// server, one tiled encode, three viewers — no viewport, a config-time
// camera, and a camera installed through the ControlViewport path — with
// parity on. The camera viewers receive strictly fewer bytes and points;
// everyone decodes every frame.
func TestServerViewportCulling(t *testing.T) {
	frames := testFrames(t, 6)
	opts := tiledTestOptions()
	srv := NewServer(context.Background(), ServerConfig{
		Options: opts, ViewerQueue: 32, FEC: FECConfig{GroupLen: 4},
	})

	cam := awayCamera()
	watches := make([]*flagWatch, 3)
	views := make([]*Viewer, 3)
	for i := range watches {
		watches[i] = &flagWatch{sink: newViewerSink(opts)}
		cfg := ViewerConfig{PacketOut: watches[i].packetOut}
		if i == 1 {
			cfg.Viewport = &cam
		}
		v, err := srv.Attach(cfg)
		if err != nil {
			t.Fatal(err)
		}
		views[i] = v
	}
	// Viewer 2 gets its camera the way a real receiver would: a control
	// message.
	if err := views[2].HandleControl(Control{Kind: ControlViewport, StreamID: views[2].StreamID(), Camera: cam}); err != nil {
		t.Fatal(err)
	}

	for _, f := range frames {
		if err := srv.Submit(context.Background(), f); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range watches {
		waitOutcomes(t, w.sink, len(frames))
	}

	// NACK rebuild of a culled frame, from the recorded masks: the newest
	// sent record is still cached, so its first fragment must reconstruct
	// with FlagTiled intact.
	v := views[1]
	v.tx.mu.Lock()
	if len(v.tx.records) == 0 {
		v.tx.mu.Unlock()
		t.Fatal("viewer 1 has no sent records")
	}
	rec := v.tx.records[len(v.tx.records)-1]
	v.tx.mu.Unlock()
	if rec.view.omit == 0 {
		t.Fatalf("viewer 1's last record is not culled: %+v", rec)
	}
	pkt := v.tx.rebuild(rec.firstSeq)
	if pkt == nil {
		t.Fatal("rebuild returned nil for a cached culled frame")
	}
	rp, err := ParsePacket(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Header.Flags&(FlagRetransmit|FlagTiled) != FlagRetransmit|FlagTiled {
		t.Fatalf("rebuilt packet flags %02x, want retransmit|tiled", rp.Header.Flags)
	}
	if rp.Header.Tile != TileNone {
		t.Fatalf("rebuilt fragment 0 starts in tile %d, want TileNone", rp.Header.Tile)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	outs := make([][]DecodedFrame, 3)
	for i, w := range watches {
		outs[i] = w.sink.finish(t, len(frames))
		if len(outs[i]) != len(frames) {
			t.Fatalf("viewer %d: %d outcomes, want %d", i, len(outs[i]), len(frames))
		}
		for _, f := range outs[i] {
			if f.Status != FrameDecoded {
				t.Fatalf("viewer %d frame %d: %v (%v)", i, f.Index, f.Status, f.Err)
			}
		}
	}
	// The no-viewport viewer: untouched stream, no FlagTiled anywhere.
	m0 := views[0].Metrics()
	if watches[0].tiled.Load() != 0 || m0.TilesCulled != 0 || m0.CulledBytes != 0 || m0.HasViewport {
		t.Fatalf("no-viewport viewer saw culling: %d tiled packets, %+v", watches[0].tiled.Load(), m0)
	}
	for vi := 1; vi <= 2; vi++ {
		m := views[vi].Metrics()
		if !m.HasViewport || m.TilesCulled == 0 || m.CulledBytes == 0 {
			t.Fatalf("viewer %d culled nothing: %+v", vi, m)
		}
		if m.WireBytes >= m0.WireBytes {
			t.Fatalf("viewer %d wire bytes %d not below full %d", vi, m.WireBytes, m0.WireBytes)
		}
		if watches[vi].tiled.Load() != watches[vi].data.Load() {
			t.Fatalf("viewer %d: %d of %d data packets tiled", vi, watches[vi].tiled.Load(), watches[vi].data.Load())
		}
		if watches[vi].tileIDs.Load() == 0 {
			t.Fatalf("viewer %d: no fragment carried a real tile id", vi)
		}
		for i, f := range outs[vi] {
			if f.Cloud.Len() >= outs[0][i].Cloud.Len() {
				t.Fatalf("viewer %d frame %d: %d points, full view has %d",
					vi, i, f.Cloud.Len(), outs[0][i].Cloud.Len())
			}
		}
	}
	if watches[1].parity.Load() == 0 {
		t.Fatal("culled viewer sent no parity")
	}
}

// TestServerViewportChurn flips cameras mid-GOP from racing goroutines —
// locally, via control messages, and clearing — while frames stream to
// four viewers. Every frame still decodes on every viewer; the
// no-viewport viewer is never culled. Run under -race in CI.
func TestServerViewportChurn(t *testing.T) {
	frames := testFrames(t, 12)
	opts := tiledTestOptions()
	srv := NewServer(context.Background(), ServerConfig{Options: opts, ViewerQueue: 64})

	const nViewers = 4
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

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 1; i < nViewers; i++ {
		wg.Add(1)
		go func(v *Viewer, i int) {
			defer wg.Done()
			cams := []viewport.Camera{
				awayCamera(),
				{Pos: [3]float64{2048, 2048, -2048}, Dir: [3]float64{0, 0, 1}, FOVDegrees: 60},
				{FOVDegrees: 360, MaxDist: 100},
			}
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				switch n % 4 {
				case 0, 1:
					v.SetViewport(cams[(n+i)%len(cams)])
				case 2:
					if err := v.HandleControl(Control{Kind: ControlViewport, Camera: cams[n%len(cams)]}); err != nil {
						t.Error(err)
						return
					}
				case 3:
					v.ClearViewport()
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
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	for i, vs := range sinks {
		outcomes := vs.finish(t, len(frames))
		if len(outcomes) != len(frames) {
			t.Fatalf("viewer %d: %d outcomes, want %d", i, len(outcomes), len(frames))
		}
		for _, f := range outcomes {
			if f.Status != FrameDecoded {
				t.Fatalf("viewer %d frame %d: %v (%v)", i, f.Index, f.Status, f.Err)
			}
			if i == 0 && f.Cloud.Len() == 0 {
				t.Fatalf("viewer 0 frame %d decoded empty", f.Index)
			}
		}
		if err := views[i].Err(); err != nil {
			t.Fatalf("viewer %d: %v", i, err)
		}
	}
	m0 := views[0].Metrics()
	if m0.TilesCulled != 0 || m0.CulledBytes != 0 {
		t.Fatalf("no-viewport viewer was culled: %+v", m0)
	}
	for i := 1; i < nViewers; i++ {
		if m := views[i].Metrics(); m.ViewportUpdates == 0 {
			t.Fatalf("viewer %d recorded no viewport updates", i)
		}
	}
}
