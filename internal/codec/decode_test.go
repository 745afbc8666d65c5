package codec

import (
	"errors"
	"testing"

	"repro/internal/geom"
)

// decodeShape is one frame shape the decoder's arena serves: an options
// variant plus the per-viewer stripping applied to every frame of it.
type decodeShape struct {
	name          string
	tiles, layers int
	marks         map[int]uint8 // tile -> TileOmitted / TileCoarse
}

var decodeShapes = []decodeShape{
	{name: "untiled"},
	{name: "tiled", tiles: 4},
	{name: "tiled, one tile omitted and one coarse", tiles: 4, marks: map[int]uint8{1: TileOmitted, 2: TileCoarse}},
	{name: "layered", layers: 3},
	{name: "layered tiles, one omitted and one coarse", tiles: 4, layers: 3, marks: map[int]uint8{0: TileCoarse, 3: TileOmitted}},
}

// encodeGOP encodes clouds as one I-frame and its P-frames in the given
// shape, as a viewer would receive them.
func encodeGOP(t *testing.T, sh decodeShape, clouds []*geom.VoxelCloud) []*EncodedFrame {
	t.Helper()
	opts := layerOpts(IntraInterV1, sh.tiles, sh.layers)
	opts.GOP = len(clouds)
	enc := NewEncoder(dev(), opts)
	out := make([]*EncodedFrame, len(clouds))
	for i, vc := range clouds {
		ef, _, err := enc.EncodeFrame(vc)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case sh.marks == nil:
		case ef.Layered():
			ef = stripLayers(ef, sh.marks, 0)
		default:
			ef = stripTiles(ef, sh.marks)
		}
		out[i] = ef
	}
	if out[0].Type != IFrame || out[len(out)-1].Type != PFrame {
		t.Fatalf("%s: GOP is not I…P", sh.name)
	}
	return out
}

// decodeAll decodes frames in order on dec.
func decodeAll(t *testing.T, dec *Decoder, frames []*EncodedFrame) []*geom.VoxelCloud {
	t.Helper()
	out := make([]*geom.VoxelCloud, len(frames))
	for i, ef := range frames {
		var err error
		if out[i], err = dec.DecodeFrame(ef); err != nil {
			t.Fatalf("frame %d (%v): %v", i, ef.Type, err)
		}
	}
	return out
}

// TestDecoderArenaReuse: the arena is sized by the largest frame seen and
// shared by every shape, and none of that may show. One decoder walks big,
// small and big again GOPs of every shape; each GOP must decode as it does
// on a decoder that has seen nothing else.
func TestDecoderArenaReuse(t *testing.T) {
	big, small := goldenFrames(t)[:2], frames(t, 2)
	if big[0].Len() < 2*small[0].Len() {
		t.Fatalf("big frames of %d points, small of %d", big[0].Len(), small[0].Len())
	}
	opts := layerOpts(IntraInterV1, 0, 0)
	shared := NewDecoder(dev(), opts)
	for round := 0; round < 2; round++ {
		for _, sh := range decodeShapes {
			for _, clouds := range [][]*geom.VoxelCloud{big, small, big} {
				gop := encodeGOP(t, sh, clouds)
				want := decodeAll(t, NewDecoder(dev(), opts), gop)
				got := decodeAll(t, shared, gop)
				for i := range gop {
					if !sameCloud(got[i], want[i]) {
						t.Fatalf("round %d, %s, %d-point GOP, frame %d (%v): a used decoder decodes it differently",
							round, sh.name, clouds[0].Len(), i, gop[i].Type)
					}
				}
			}
		}
	}
}

// TestDecodedCloudNotAliased: what DecodeFrame returns is the caller's, and
// what it was given is the caller's again once it returns. A kept cloud
// survives later decodes of every shape, and an I-frame's wire buffer may be
// overwritten while its P-frames are still to come.
func TestDecodedCloudNotAliased(t *testing.T) {
	clouds := goldenFrames(t)[:3]
	for _, sh := range decodeShapes {
		gop := encodeGOP(t, sh, clouds)
		want := decodeAll(t, NewDecoder(dev(), layerOpts(IntraInterV1, 0, 0)), gop)

		dec := NewDecoder(dev(), layerOpts(IntraInterV1, 0, 0))
		var kept, copies []*geom.VoxelCloud
		for i, ef := range gop {
			wire := serialize(t, ef)
			parsed, err := ParseFrame(wire) // aliases wire
			if err != nil {
				t.Fatal(err)
			}
			vc, err := dec.DecodeFrame(parsed)
			if err != nil {
				t.Fatalf("%s frame %d: %v", sh.name, i, err)
			}
			for j := range wire {
				wire[j] = 0xA5
			}
			if !sameCloud(vc, want[i]) {
				t.Fatalf("%s frame %d: decode depends on an earlier frame's wire buffer", sh.name, i)
			}
			kept = append(kept, vc)
			copies = append(copies, &geom.VoxelCloud{Depth: vc.Depth, Voxels: append([]geom.Voxel(nil), vc.Voxels...)})
		}
		for i := range kept {
			if !sameCloud(kept[i], copies[i]) {
				t.Fatalf("%s: frame %d's cloud changed under later decodes", sh.name, i)
			}
		}
	}
}

// TestFailedDecodeKeepsReference: a decode that fails — however late, however
// many tiles had already written their windows — leaves the reference as it
// was: the P-frame of the I-frame before it decodes as if the failed frame
// had never arrived.
func TestFailedDecodeKeepsReference(t *testing.T) {
	all := goldenFrames(t)
	for _, sh := range decodeShapes {
		gop := encodeGOP(t, sh, all[:2])
		want := decodeAll(t, NewDecoder(dev(), layerOpts(IntraInterV1, 0, 0)), gop)

		// Another I-frame, broken two ways: its attribute stream cut short
		// (the last unit's chunk loses its tail), and the tail of its last
		// tile's geometry overwritten with the head of the first tile's.
		other := encodeGOP(t, sh, all[3:5])[0]
		short := *other
		cut := uint32(len(other.Attr) / 8)
		short.Attr = other.Attr[:len(other.Attr)-int(cut)]
		unit := 0 // the unit that loses the bytes: the last one that has them
		if other.Tiled() {
			short.Tiles = append([]TileInfo(nil), other.Tiles...)
			for unit = len(short.Tiles) - 1; short.Tiles[unit].AttrLen < cut; unit-- {
			}
			short.Tiles[unit].AttrLen -= cut
		}
		if other.Layered() {
			ld := *other.Layer
			ld.Units = append([][]LayerSpan(nil), ld.Units...)
			ld.Units[unit] = append([]LayerSpan(nil), ld.Units[unit]...)
			ld.Units[unit][ld.Layers-1].AttrLen -= cut
			short.Layer = &ld
		}
		broken := []*EncodedFrame{&short}
		if other.Tiled() && !other.Layered() {
			swapped := *other
			swapped.Geometry = append([]byte(nil), other.Geometry...)
			g0 := int(other.Tiles[0].GeomLen)
			copy(swapped.Geometry[len(swapped.Geometry)-g0/2:], other.Geometry[:g0/2])
			broken = append(broken, &swapped)
		}

		dec := NewDecoder(dev(), layerOpts(IntraInterV1, 0, 0))
		if got, err := dec.DecodeFrame(gop[0]); err != nil || !sameCloud(got, want[0]) {
			t.Fatalf("%s: I-frame: %v", sh.name, err)
		}
		for i, bad := range broken {
			// The containers are sound: the decode fails inside a payload.
			if _, err := dec.DecodeFrame(bad); !errors.Is(err, ErrCorruptFrame) || errors.Is(err, ErrBadContainer) {
				t.Fatalf("%s: broken I-frame %d: %v, want ErrCorruptFrame from a stage decoder", sh.name, i, err)
			}
		}
		if got, err := dec.DecodeFrame(gop[1]); err != nil || !sameCloud(got, want[1]) {
			t.Fatalf("%s: P-frame after a failed I-frame: %v (reference changed)", sh.name, err)
		}
	}
}

// TestUndecodedIFrameClearsReference: an I-frame the decoder took nothing to
// predict from — every tile omitted, or layers shed — ends the GOP before it
// all the same. Its P-frames must report ErrMissingReference, not decode
// against the previous GOP's colours (36 980 of 37 034 wrong, with no error,
// while an all-omitted I-frame returned early and left the reference be).
func TestUndecodedIFrameClearsReference(t *testing.T) {
	clouds := goldenFrames(t)[:4]
	all := map[int]uint8{0: TileOmitted, 1: TileOmitted, 2: TileOmitted, 3: TileOmitted}
	for _, tc := range []struct {
		name   string
		layers int
		strip  func(*EncodedFrame) *EncodedFrame
	}{
		{"every tile omitted", 0, func(ef *EncodedFrame) *EncodedFrame { return stripTiles(ef, all) }},
		{"layered, every tile omitted", 3, func(ef *EncodedFrame) *EncodedFrame { return stripLayers(ef, all, 0) }},
		{"layered, top layer shed", 3, func(ef *EncodedFrame) *EncodedFrame { return stripLayers(ef, nil, 2) }},
	} {
		opts := layerOpts(IntraInterV1, 4, tc.layers)
		opts.GOP = 2
		enc, dec := NewEncoder(dev(), opts), NewDecoder(dev(), opts)
		for i, vc := range clouds {
			ef, _, err := enc.EncodeFrame(vc)
			if err != nil {
				t.Fatal(err)
			}
			if i == 2 {
				if ef.Type != IFrame {
					t.Fatalf("%s: frame 2 is a %v", tc.name, ef.Type)
				}
				ef = tc.strip(ef)
			}
			_, err = dec.DecodeFrame(ef)
			if want := i == 3; want != errors.Is(err, ErrMissingReference) || (!want && err != nil) {
				t.Fatalf("%s: frame %d (%v): %v", tc.name, i, ef.Type, err)
			}
		}
	}
}
