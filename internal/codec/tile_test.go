package codec

import (
	"bytes"
	"testing"

	"repro/internal/edgesim"
)

// TestTiledContainerRoundTrip exercises WriteTo/ReadFrameFrom on real tiled
// frames, including per-viewer stripping (omitted and coarse tiles) done
// exactly the way the streaming layer rewrites a frame.
func TestTiledContainerRoundTrip(t *testing.T) {
	frames := goldenFrames(t)
	opts := OptionsFor(IntraInterV1)
	opts.IntraAttr.Segments = 1500
	opts.Inter.Segments = 2500
	opts.Tiles = 4
	enc := NewEncoder(edgesim.NewXavier(edgesim.Mode15W), opts)
	ef, _, err := enc.EncodeFrame(frames[0])
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if _, err := ef.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != ef.Size() {
		t.Fatalf("Size()=%d but WriteTo wrote %d", ef.Size(), buf.Len())
	}
	rt, err := ReadFrameFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.Tiles) != len(ef.Tiles) {
		t.Fatalf("round-trip tile count %d != %d", len(rt.Tiles), len(ef.Tiles))
	}
	for i := range rt.Tiles {
		if rt.Tiles[i] != ef.Tiles[i] {
			t.Fatalf("tile %d round-trip mismatch: %+v vs %+v", i, rt.Tiles[i], ef.Tiles[i])
		}
	}
	if !bytes.Equal(rt.Geometry, ef.Geometry) || !bytes.Equal(rt.Attr, ef.Attr) {
		t.Fatal("payload round-trip mismatch")
	}

	// Strip tile 1 (omitted) and coarsen tile 2, the streaming layer's
	// rewrite: drop the byte ranges, adjust the directory, keep Points.
	if len(ef.Tiles) < 3 {
		t.Fatalf("need >=3 tiles, got %d", len(ef.Tiles))
	}
	stripped := stripTiles(ef, map[int]uint8{1: TileOmitted, 2: TileCoarse})
	buf.Reset()
	if _, err := stripped.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	rt2, err := ReadFrameFrom(&buf)
	if err != nil {
		t.Fatalf("stripped frame rejected: %v", err)
	}
	dec := NewDecoder(edgesim.NewXavier(edgesim.Mode15W), opts)
	vc, err := dec.DecodeFrame(rt2)
	if err != nil {
		t.Fatalf("stripped frame decode: %v", err)
	}
	wantPts := 0
	for i, ti := range rt2.Tiles {
		if i != 1 {
			wantPts += int(ti.Points)
		}
	}
	if vc.Len() != wantPts {
		t.Fatalf("stripped decode has %d points, want %d", vc.Len(), wantPts)
	}
	// The coarse tile's points decode with zero colour.
	full := NewDecoder(edgesim.NewXavier(edgesim.Mode15W), opts)
	fvc, err := full.DecodeFrame(ef)
	if err != nil {
		t.Fatal(err)
	}
	if vc.Len() >= fvc.Len() {
		t.Fatal("stripped decode not smaller than full decode")
	}
}

// TestTiledConcealedReference pins the GOP behaviour under viewport culling:
// after decoding an I-frame with an omitted tile, following P-frames (full
// or equally culled) must still decode without error — the decoder conceals
// the missing reference range by clamping to the nearest included voxel.
func TestTiledConcealedReference(t *testing.T) {
	frames := goldenFrames(t)
	opts := OptionsFor(IntraInterV1)
	opts.IntraAttr.Segments = 1500
	opts.Inter.Segments = 2500
	opts.Tiles = 4
	enc := NewEncoder(edgesim.NewXavier(edgesim.Mode15W), opts)
	dec := NewDecoder(edgesim.NewXavier(edgesim.Mode15W), opts)
	for fi, f := range frames[:3] { // one GOP: I P P
		ef, _, err := enc.EncodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		culled := stripTiles(ef, map[int]uint8{0: TileOmitted})
		vc, err := dec.DecodeFrame(culled)
		if err != nil {
			t.Fatalf("frame %d (%v) with culled tile: %v", fi, ef.Type, err)
		}
		want := int(ef.NumPoints) - int(ef.Tiles[0].Points)
		if vc.Len() != want {
			t.Fatalf("frame %d: %d points, want %d", fi, vc.Len(), want)
		}
	}
}

// TestFrameLayoutRewrite pins the zero-copy path the streaming layer uses:
// ParseFrameLayout over the serialized frame, then RewriteHeaderSub plus the
// kept tiles' payload spans (viewerFrame) must concatenate to exactly the bytes that
// stripTiles+WriteTo produce for the same omit/coarse marks.
func TestFrameLayoutRewrite(t *testing.T) {
	frames := goldenFrames(t)
	opts := OptionsFor(IntraInterV1)
	opts.IntraAttr.Segments = 1500
	opts.Inter.Segments = 2500
	opts.Tiles = 4
	enc := NewEncoder(edgesim.NewXavier(edgesim.Mode15W), opts)
	for fi, f := range frames[:2] { // I and P
		ef, _, err := enc.EncodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := ef.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		wire := buf.Bytes()
		l := ParseFrameLayout(wire)
		if l == nil {
			t.Fatalf("frame %d: ParseFrameLayout returned nil", fi)
		}
		if l.Type != ef.Type || len(l.Tiles) != len(ef.Tiles) {
			t.Fatalf("frame %d: layout header mismatch", fi)
		}
		for i := range l.Tiles {
			if l.Tiles[i] != ef.Tiles[i] {
				t.Fatalf("frame %d tile %d: %+v vs %+v", fi, i, l.Tiles[i], ef.Tiles[i])
			}
		}
		if l.GeomOff[len(l.Tiles)]-l.GeomOff[0] != len(ef.Geometry) ||
			l.AttrOff[len(l.Tiles)]-l.AttrOff[0] != len(ef.Attr) {
			t.Fatalf("frame %d: span totals mismatch", fi)
		}

		const omit, coarse = uint64(1 << 1), uint64(1 << 2)
		got, _, _ := viewerFrame(l, wire, omit, coarse, 0)
		stripped := stripTiles(ef, map[int]uint8{1: TileOmitted, 2: TileCoarse})
		buf.Reset()
		if _, err := stripped.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, buf.Bytes()) {
			t.Fatalf("frame %d: layout rewrite differs from stripTiles+WriteTo", fi)
		}
		// The rewritten frame must parse and decode.
		if _, err := ReadFrameFrom(bytes.NewReader(got)); err != nil {
			t.Fatalf("frame %d: rewritten frame rejected: %v", fi, err)
		}
		// Untiled frames must yield nil, not a bogus layout.
		uopts := opts
		uopts.Tiles = 0
		uenc := NewEncoder(edgesim.NewXavier(edgesim.Mode15W), uopts)
		uef, _, err := uenc.EncodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		buf.Reset()
		if _, err := uef.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if ParseFrameLayout(buf.Bytes()) != nil {
			t.Fatalf("frame %d: untiled frame produced a layout", fi)
		}
	}
}

// stripTiles returns a copy of a tiled frame with the given tiles omitted
// or coarsened, rewriting the concatenated streams and the directory the
// way the per-viewer fan-out does.
func stripTiles(f *EncodedFrame, marks map[int]uint8) *EncodedFrame {
	out := &EncodedFrame{
		Type: f.Type, Depth: f.Depth, NumPoints: f.NumPoints,
		HasRescale: f.HasRescale, Rescale: f.Rescale,
		Tiles: make([]TileInfo, len(f.Tiles)),
	}
	goff, aoff := 0, 0
	for i, ti := range f.Tiles {
		g := f.Geometry[goff : goff+int(ti.GeomLen)]
		a := f.Attr[aoff : aoff+int(ti.AttrLen)]
		goff += int(ti.GeomLen)
		aoff += int(ti.AttrLen)
		nt := ti
		switch marks[i] {
		case TileOmitted:
			nt.Flags |= TileOmitted
			nt.GeomLen, nt.AttrLen = 0, 0
		case TileCoarse:
			nt.Flags |= TileCoarse
			nt.AttrLen = 0
			out.Geometry = append(out.Geometry, g...)
		default:
			out.Geometry = append(out.Geometry, g...)
			out.Attr = append(out.Attr, a...)
		}
		out.Tiles[i] = nt
	}
	return out
}
