package codec

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/edgesim"
	"repro/internal/geom"
	"repro/internal/morton"
	"repro/internal/paroctree"
)

// The layer tests beside the conformance table, whose framing rule holds a
// full layered decode to the unlayered one (TestLayeredFullDecodeExact,
// conformance_test.go). Layering is a pure
// re-framing of the encoded bytes, so the tests here compare layered output
// with the progressive LoD decoder, an independently stripped container, the
// source frame or the GOP rules — never with hand-computed expectations.

func layerOpts(d Design, tiles, layers int) Options {
	opts := OptionsFor(d)
	opts.IntraAttr.Segments = 1500
	opts.Inter.Segments = 2500
	opts.Tiles = tiles
	opts.Layers = layers
	return opts
}

// subFrame serializes a layered frame, truncates it to its first sub layers
// via the zero-copy layout rewrite (exactly the streaming layer's path),
// and parses the result back.
func subFrame(t *testing.T, ef *EncodedFrame, sub uint8) *EncodedFrame {
	t.Helper()
	rt, err := ReadFrameFrom(bytes.NewReader(rewriteSub(t, ef, 0, 0, sub)))
	if err != nil {
		t.Fatalf("sub=%d frame rejected: %v", sub, err)
	}
	return rt
}

// rewriteSub is RewriteHeaderSub plus the kept payload spans — the complete
// per-viewer partial frame as the sender assembles it.
func rewriteSub(t *testing.T, ef *EncodedFrame, omit, coarse uint64, sub uint8) []byte {
	t.Helper()
	wire := serialize(t, ef)
	l := ParseFrameLayout(wire)
	if l == nil {
		t.Fatal("ParseFrameLayout returned nil for a layered frame")
	}
	got, _, _ := viewerFrame(l, wire, omit, coarse, sub)
	return got
}

// stripLayers independently builds the truncated frame in memory, the way
// stripTiles does for the tile path — the differential reference for
// rewriteSub.
func stripLayers(f *EncodedFrame, marks map[int]uint8, sub uint8) *EncodedFrame {
	ld := f.Layer
	l := int(ld.Layers)
	subEff := int(sub)
	if subEff == 0 || subEff > l {
		subEff = l
	}
	out := &EncodedFrame{
		Type: f.Type, Depth: f.Depth, NumPoints: f.NumPoints,
		HasRescale: f.HasRescale, Rescale: f.Rescale,
		Layer: &LayerDir{
			Layers: ld.Layers, Sub: uint8(subEff), BaseLevel: ld.BaseLevel,
			Units: make([][]LayerSpan, len(ld.Units)),
		},
	}
	if f.Tiled() {
		out.Tiles = make([]TileInfo, len(f.Tiles))
	}
	goff, aoff := 0, 0
	for u, spans := range ld.Units {
		glen, alen := len(f.Geometry), len(f.Attr)
		omitted, coarsed := false, false
		if f.Tiled() {
			ti := f.Tiles[u]
			glen, alen = int(ti.GeomLen), int(ti.AttrLen)
			omitted = ti.Omitted() || marks[u] == TileOmitted
			coarsed = !omitted && (ti.Coarse() || marks[u] == TileCoarse)
		}
		gchunk := f.Geometry[goff : goff+glen]
		achunk := f.Attr[aoff : aoff+alen]
		goff += glen
		aoff += alen
		ns := make([]LayerSpan, l)
		var ug, ua uint32
		gpos, apos := 0, 0
		for lay, s := range spans {
			g, a := gchunk[gpos:gpos+int(s.GeomLen)], achunk[apos:apos+int(s.AttrLen)]
			gpos += int(s.GeomLen)
			apos += int(s.AttrLen)
			if lay >= subEff || omitted {
				continue
			}
			out.Geometry = append(out.Geometry, g...)
			ns[lay].GeomLen = s.GeomLen
			ug += s.GeomLen
			if !coarsed {
				out.Attr = append(out.Attr, a...)
				ns[lay].AttrLen = s.AttrLen
				ua += s.AttrLen
			}
		}
		out.Layer.Units[u] = ns
		if f.Tiled() {
			nt := f.Tiles[u]
			switch {
			case omitted:
				nt.Flags |= TileOmitted
			case coarsed:
				nt.Flags |= TileCoarse
			}
			nt.GeomLen, nt.AttrLen = ug, ua
			out.Tiles[u] = nt
		}
	}
	return out
}

// TestLayerLayoutRewriteSub pins the zero-copy partial-frame path against
// the in-memory reference: RewriteHeaderSub plus kept spans must equal
// stripLayers+WriteTo byte for byte, and the result must parse and decode —
// over tiled and untiled frames, full and partial subscriptions, and
// combined tile masks.
func TestLayerLayoutRewriteSub(t *testing.T) {
	frames := goldenFrames(t)
	for _, tiles := range []int{0, 4} {
		opts := layerOpts(IntraInterV1, tiles, 3)
		enc := NewEncoder(edgesim.NewXavier(edgesim.Mode15W), opts)
		dec := NewDecoder(edgesim.NewXavier(edgesim.Mode15W), opts)
		for fi, f := range frames[:2] { // I and P
			ef, _, err := enc.EncodeFrame(f)
			if err != nil {
				t.Fatal(err)
			}
			type mask struct {
				omit, coarse uint64
				sub          uint8
			}
			cases := []mask{{0, 0, 0}, {0, 0, 1}, {0, 0, 2}, {0, 0, 3}}
			marks := []map[int]uint8{nil, nil, nil, nil}
			if tiles > 0 {
				cases = append(cases, mask{1 << 1, 1 << 2, 2}, mask{1 << 1, 1 << 2, 0})
				marks = append(marks,
					map[int]uint8{1: TileOmitted, 2: TileCoarse},
					map[int]uint8{1: TileOmitted, 2: TileCoarse})
			}
			for ci, m := range cases {
				got := rewriteSub(t, ef, m.omit, m.coarse, m.sub)
				want := stripLayers(ef, marks[ci], m.sub)
				var buf bytes.Buffer
				if _, err := want.WriteTo(&buf); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, buf.Bytes()) {
					t.Fatalf("T%d frame %d case %d: rewrite differs from stripLayers+WriteTo", tiles, fi, ci)
				}
				rt, err := ReadFrameFrom(bytes.NewReader(got))
				if err != nil {
					t.Fatalf("T%d frame %d case %d: rewritten frame rejected: %v", tiles, fi, ci, err)
				}
				if _, err := dec.DecodeFrame(rt); err != nil {
					t.Fatalf("T%d frame %d case %d: rewritten frame decode: %v", tiles, fi, ci, err)
				}
			}
		}
	}
}

// attrMSEAt maps every ground-truth leaf to its decoded colour through the
// level-`level` cell it falls in and returns the mean squared colour error.
// Requires lossless geometry so lattice positions identify cells exactly.
func attrMSEAt(t *testing.T, truth, got *geom.VoxelCloud, level uint) float64 {
	t.Helper()
	shift := 3 * (truth.Depth - level)
	cells := make(map[morton.Code]geom.Color, len(got.Voxels))
	for _, v := range got.Voxels {
		cells[morton.Encode(v.X, v.Y, v.Z)>>shift] = v.C
	}
	var sum float64
	for _, v := range truth.Voxels {
		c, ok := cells[morton.Encode(v.X, v.Y, v.Z)>>shift]
		if !ok {
			t.Fatalf("level %d: leaf cell missing from partial decode", level)
		}
		sum += float64(v.C.Dist2(c))
	}
	return sum / float64(len(truth.Voxels))
}

// TestLayeredPartialMonotoneMSE pins the quality ladder: decoding base+k
// layers has monotonically non-increasing attribute MSE in k, reaching zero
// at the full subscription. Untiled frames are exact (the base medians are
// fixed, so the MSE is constant until the verbatim top layer lands); tiled
// frames get a small tolerance for shared boundary cells, where the winning
// tile's median changes as λ refines.
func TestLayeredPartialMonotoneMSE(t *testing.T) {
	frames := goldenFrames(t)
	const layers = 3
	for _, tc := range []struct {
		design Design
		tiles  int
	}{
		{IntraOnly, 0}, {IntraInterV1, 0}, {IntraInterV1, 4},
	} {
		t.Run(fmt.Sprintf("%v/T%d", tc.design, tc.tiles), func(t *testing.T) {
			opts := layerOpts(tc.design, tc.tiles, layers)
			opts.Lossless = true // lattice positions must identify cells exactly
			enc := NewEncoder(edgesim.NewXavier(edgesim.Mode15W), opts)
			// One decoder per subscription depth, persistent across the GOP:
			// the full-subscription decoder needs the I-frame reference for
			// its P decodes, exactly like a real viewer at that depth.
			full := NewDecoder(edgesim.NewXavier(edgesim.Mode15W), opts)
			decs := make([]*Decoder, layers+1)
			for sub := 1; sub <= layers; sub++ {
				decs[sub] = NewDecoder(edgesim.NewXavier(edgesim.Mode15W), opts)
			}
			for fi, f := range frames[:3] { // one GOP: I P P
				ef, _, err := enc.EncodeFrame(f)
				if err != nil {
					t.Fatal(err)
				}
				truth, err := full.DecodeFrame(subFrame(t, ef, 0))
				if err != nil {
					t.Fatal(err)
				}
				mse := make([]float64, layers+1)
				for sub := 1; sub <= layers; sub++ {
					got, err := decs[sub].DecodeFrame(subFrame(t, ef, uint8(sub)))
					if err != nil {
						t.Fatalf("frame %d sub=%d: %v", fi, sub, err)
					}
					level := uint(ef.Layer.BaseLevel) + uint(sub) - 1
					mse[sub] = attrMSEAt(t, truth, got, level)
				}
				if mse[layers] != 0 {
					t.Fatalf("frame %d: full subscription MSE %g != 0", fi, mse[layers])
				}
				tol := 0.0
				if tc.tiles > 0 {
					tol = 1.0 // boundary-cell median churn
				}
				for sub := 2; sub <= layers; sub++ {
					if mse[sub] > mse[sub-1]+tol {
						t.Fatalf("frame %d: MSE not monotone: sub=%d %.3f > sub=%d %.3f",
							fi, sub, mse[sub], sub-1, mse[sub-1])
					}
				}
				if tc.tiles == 0 {
					// Colours are the fixed base medians until the verbatim top
					// layer: the curve is exactly flat below the full sub.
					for sub := 2; sub < layers; sub++ {
						if mse[sub] != mse[1] {
							t.Fatalf("frame %d: untiled MSE not flat below full: %v", fi, mse[1:])
						}
					}
				}
			}
		})
	}
}

// TestLayeredBaseMatchesLoD pins the base layer against the independent
// progressive decoder: a sub=1 decode must produce exactly the voxel
// positions DeserializeLoD+UpscaleToLattice yield at BaseLevel, and the
// directory's base GeomLen must cover exactly the BFS prefix those levels
// need — the per-level entropy flush point contract.
func TestLayeredBaseMatchesLoD(t *testing.T) {
	frames := goldenFrames(t)
	opts := layerOpts(IntraOnly, 0, 3)
	opts.Lossless = true
	enc := NewEncoder(edgesim.NewXavier(edgesim.Mode15W), opts)
	dec := NewDecoder(edgesim.NewXavier(edgesim.Mode15W), opts)
	ef, _, err := enc.EncodeFrame(frames[0])
	if err != nil {
		t.Fatal(err)
	}
	base := ef.Layer.Units[0][0]
	chunk := ef.Geometry[:base.GeomLen]
	if chunk[0] != 0 {
		t.Fatalf("base layer mode %d, want raw", chunk[0])
	}
	d := edgesim.NewXavier(edgesim.Mode15W)
	lod, err := paroctree.DeserializeLoD(d, chunk[1:], uint(ef.Depth), uint(ef.Layer.BaseLevel))
	if err != nil {
		t.Fatal(err)
	}
	if lod.PrefixBytes != len(chunk)-1 {
		t.Fatalf("base layer carries %d mask bytes but level %d needs %d",
			len(chunk)-1, ef.Layer.BaseLevel, lod.PrefixBytes)
	}
	want := lod.UpscaleToLattice(d, uint(ef.Depth))
	got, err := dec.DecodeFrame(subFrame(t, ef, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Voxels) != len(want) {
		t.Fatalf("sub=1 decode has %d points, LoD has %d", len(got.Voxels), len(want))
	}
	for i := range want {
		if got.Voxels[i].X != want[i].X || got.Voxels[i].Y != want[i].Y || got.Voxels[i].Z != want[i].Z {
			t.Fatalf("voxel %d: sub=1 position %v != LoD %v", i, got.Voxels[i], want[i])
		}
	}
}

// TestLayeredContainerRoundTrip exercises WriteTo/ReadFrameFrom on a real
// tiled+layered frame: directory equality, payload equality, and the Size
// accounting.
func TestLayeredContainerRoundTrip(t *testing.T) {
	frames := goldenFrames(t)
	opts := layerOpts(IntraInterV1, 4, 3)
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
	if rt.Layer == nil {
		t.Fatal("round-trip lost the layer directory")
	}
	if rt.Layer.Layers != ef.Layer.Layers || rt.Layer.Sub != ef.Layer.Sub || rt.Layer.BaseLevel != ef.Layer.BaseLevel {
		t.Fatalf("layer prologue mismatch: %+v vs %+v", rt.Layer, ef.Layer)
	}
	if len(rt.Layer.Units) != len(ef.Layer.Units) {
		t.Fatalf("unit count %d != %d", len(rt.Layer.Units), len(ef.Layer.Units))
	}
	for u := range rt.Layer.Units {
		for l := range rt.Layer.Units[u] {
			if rt.Layer.Units[u][l] != ef.Layer.Units[u][l] {
				t.Fatalf("unit %d layer %d span mismatch", u, l)
			}
		}
	}
	if !bytes.Equal(rt.Geometry, ef.Geometry) || !bytes.Equal(rt.Attr, ef.Attr) {
		t.Fatal("payload round-trip mismatch")
	}
}

// TestLayeredPartialReferenceSafety pins the GOP rules for partial
// subscriptions: partial P-frames decode standalone (no reference), and a
// partial I-frame clears any installed reference instead of poisoning the
// following full P decode.
func TestLayeredPartialReferenceSafety(t *testing.T) {
	frames := goldenFrames(t)
	opts := layerOpts(IntraInterV1, 0, 3)
	enc := NewEncoder(edgesim.NewXavier(edgesim.Mode15W), opts)
	efI, _, err := enc.EncodeFrame(frames[0])
	if err != nil {
		t.Fatal(err)
	}
	efP, _, err := enc.EncodeFrame(frames[1])
	if err != nil {
		t.Fatal(err)
	}
	// A fresh decoder must decode a partial P without any reference.
	dec := NewDecoder(edgesim.NewXavier(edgesim.Mode15W), opts)
	if _, err := dec.DecodeFrame(subFrame(t, efP, 1)); err != nil {
		t.Fatalf("partial P standalone decode: %v", err)
	}
	// Full I, then partial I, then full P: the partial I must have cleared
	// the reference, so the full P reports ErrMissingReference rather than
	// decoding against a stale cloud.
	dec2 := NewDecoder(edgesim.NewXavier(edgesim.Mode15W), opts)
	if _, err := dec2.DecodeFrame(subFrame(t, efI, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := dec2.DecodeFrame(subFrame(t, efI, 1)); err != nil {
		t.Fatalf("partial I decode: %v", err)
	}
	if _, err := dec2.DecodeFrame(subFrame(t, efP, 0)); err != ErrMissingReference {
		t.Fatalf("full P after partial I: got %v, want ErrMissingReference", err)
	}
}
