package stream

// Viewport-adaptive tile fan-out: the wire framing of FlagTiled packets
// and ControlViewport (rejecting non-finite fields), and plan equivalence —
// gathering a culled frame fragment-by-fragment from the shared payload's
// spans reproduces, byte for byte, the frame a full rewrite would produce,
// at any MTU (its parity bodies are checked over it by
// TestParityBodyRecoversAnyMember). Per-viewer culling and camera churn are
// rows of the scenario table.

import (
	"bytes"
	"errors"
	"math"
	"math/bits"
	"testing"

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
