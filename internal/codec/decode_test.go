package codec

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"slices"
	"testing"
	"time"

	"repro/internal/attr"
	"repro/internal/edgesim"
	"repro/internal/geom"
)

// ledgerRow is what TestDecodeLedgerPinned compares of a kernel record.
type ledgerRow struct {
	name, stage string
	launches    int
	items       int64
	ops, bytes  float64
	sim         time.Duration
}

// decodeLedger encodes the first n golden frames under opts, decodes them on
// a fresh device and returns that device's ledger.
func decodeLedger(t *testing.T, opts Options, n int) []ledgerRow {
	t.Helper()
	return viewLedger(t, opts, n, func(ef *EncodedFrame) *EncodedFrame { return ef })
}

// viewLedger is decodeLedger of the frames as a viewer gets them: view is
// applied to every encoded frame before it is decoded.
func viewLedger(t *testing.T, opts Options, n int, view func(*EncodedFrame) *EncodedFrame) []ledgerRow {
	t.Helper()
	enc := NewEncoder(dev(), opts)
	d := dev()
	dec := NewDecoder(d, opts)
	for _, vc := range goldenFrames(t)[:n] {
		ef, _, err := enc.EncodeFrame(vc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dec.DecodeFrame(view(ef)); err != nil {
			t.Fatal(err)
		}
	}
	return ledgerOf(d)
}

// windowedDecode is what one decoder cut into a given number of windows made
// of a run of frames: a cloud (or nil) and an error text per frame, and the
// ledger of the device it ran on.
type windowedDecode struct {
	clouds []*geom.VoxelCloud
	errs   []string
	ledger []ledgerRow
}

// decodeWindowed decodes frames in order, each through decode, on a fresh
// decoder that cuts an untiled frame into the given number of windows.
func decodeWindowed(opts Options, windows int, frames []*EncodedFrame, decode func(*Decoder, *EncodedFrame) (*geom.VoxelCloud, error)) windowedDecode {
	d := dev()
	dec := NewDecoder(d, opts)
	dec.windows = windows
	var out windowedDecode
	for _, ef := range frames {
		vc, err := decode(dec, ef)
		out.clouds = append(out.clouds, vc)
		out.errs = append(out.errs, fmt.Sprint(err))
	}
	out.ledger = ledgerOf(d)
	return out
}

// sameDecode reports whether two windowed decodes returned the same clouds
// and errors, and, when ledgers is set, booked the same ledger.
func sameDecode(a, b windowedDecode, ledgers bool) bool {
	for i := range a.clouds {
		if (a.clouds[i] == nil) != (b.clouds[i] == nil) || a.clouds[i] != nil && !sameCloud(a.clouds[i], b.clouds[i]) {
			return false
		}
	}
	return slices.Equal(a.errs, b.errs) && (!ledgers || slices.Equal(a.ledger, b.ledger))
}

// damaged returns broken copies of ef whose containers still parse: bit
// flips spread over both payloads and, for an unlayered frame, both payloads
// cut short.
func damaged(ef *EncodedFrame) []*EncodedFrame {
	var out []*EncodedFrame
	for _, geometry := range []bool{true, false} {
		payload := ef.Attr
		if geometry {
			payload = ef.Geometry
		}
		for k := 1; k <= 3; k++ {
			at := k * len(payload) / 4
			flipped := *ef
			mut := bytes.Clone(payload)
			mut[at] ^= byte(0x11 << (k % 4))
			if flipped.Attr = mut; geometry {
				flipped.Attr, flipped.Geometry = ef.Attr, mut
			}
			out = append(out, &flipped)
			if ef.Layered() {
				continue
			}
			short := *ef
			if short.Attr = payload[:at]; geometry {
				short.Attr, short.Geometry = ef.Attr, payload[:at]
			}
			out = append(out, &short)
		}
	}
	return out
}

// TestDecodeWindowCountInvariant is TestEncodeWorkerCountInvariant's decode
// mirror: the window cut is not in what a decode returns. An untiled I + P
// pair — and a 40-point pair, at more windows than points — decodes at 1, 2,
// 3, 8 and 64 windows to the same clouds and books the same edgesim ledger,
// whole, layer-shed to one or two of three layers, and geometry-only at every
// progressive level; across layered or not, colour space with one or two
// attribute layers, quantization and points per segment, with both entropy
// stages on for half of the colour space x quantization pairs (the entropy
// stage is the same work at every window count), and on two golden frames
// whose geometry chunk is mode 2's entropy slices. Every bit-flipped or
// cut-short copy of either frame decodes to the same cloud, or fails with
// the same error, at every window count.
func TestDecodeWindowCountInvariant(t *testing.T) {
	// Every third voxel of the test frames: a window walks the runs of every
	// segment before it, so 64 windows cost 64 times the frame's segments.
	var fs, tiny []*geom.VoxelCloud
	for _, vc := range frames(t, 2) {
		thin := &geom.VoxelCloud{Depth: vc.Depth}
		for i := 0; i < vc.Len(); i += 3 {
			thin.Voxels = append(thin.Voxels, vc.Voxels[i])
		}
		fs = append(fs, thin)
		tiny = append(tiny, &geom.VoxelCloud{Depth: vc.Depth, Voxels: vc.Voxels[:40]})
	}
	for _, clouds := range [][]*geom.VoxelCloud{fs, tiny} {
		for _, layers := range []int{1, 3} {
			for _, ycocg := range []bool{false, true} {
				for _, qstep := range []int{1, 4} {
					for _, perSeg := range []int{1, 16, 25} {
						entropy := ycocg != (qstep == 4)
						opts := OptionsFor(IntraInterV1)
						opts.GOP, opts.Layers, opts.EntropyGeometry = 2, layers, entropy
						segs := max(clouds[0].Len()/perSeg, 1)
						attrLayers := 2
						if ycocg {
							attrLayers = 1
						}
						opts.IntraAttr = attr.Params{Segments: segs, QStep: qstep, Layers: attrLayers, YCoCg: ycocg, Entropy: entropy}
						opts.Inter.Segments, opts.Inter.Candidates, opts.Inter.QStep = segs, 32, qstep
						name := fmt.Sprintf("%d points, %d layers, entropy %v, %+v", clouds[0].Len(), layers, entropy, opts.IntraAttr)
						// A geometry-only decode reads no attribute option.
						checkDecodeWindows(t, name, opts, clouds, perSeg == 25 && qstep == 1)
					}
				}
			}
		}
	}
	// The golden frames with geometry entropy: a mode-2 chunk, whose slices
	// the stream pass decodes before the windows fan out.
	opts := layerOpts(IntraInterV1, 0, 0)
	opts.GOP, opts.EntropyGeometry = 2, true
	checkDecodeWindows(t, "mode-2 geometry chunk", opts, goldenFrames(t)[:2], false)
}

// checkDecodeWindows holds the decodes of an I + P pair at every window count
// to the one-window decode: whole, layer-shed, geometry-only at every level
// when levels is set, and every damaged copy of either frame.
func checkDecodeWindows(t *testing.T, name string, opts Options, clouds []*geom.VoxelCloud, levels bool) {
	t.Helper()
	enc := NewEncoder(dev(), opts)
	var gop []*EncodedFrame
	for _, vc := range clouds {
		ef, _, err := enc.EncodeFrame(vc)
		if err != nil {
			t.Fatal(err)
		}
		gop = append(gop, ef)
	}
	full := func(dec *Decoder, ef *EncodedFrame) (*geom.VoxelCloud, error) { return dec.DecodeFrame(ef) }
	views := map[string]func(*Decoder, *EncodedFrame) (*geom.VoxelCloud, error){"whole": full}
	if gop[0].Layered() {
		for _, sub := range []uint8{1, 2} {
			views[fmt.Sprintf("sub %d", sub)] = func(dec *Decoder, ef *EncodedFrame) (*geom.VoxelCloud, error) {
				return dec.DecodeFrame(stripLayers(ef, nil, sub))
			}
		}
	}
	for level := uint(0); levels && level <= uint(gop[0].Depth); level++ {
		views[fmt.Sprintf("level %d", level)] = func(dec *Decoder, ef *EncodedFrame) (*geom.VoxelCloud, error) {
			vc, _, err := dec.decodeTo(ef, level, true)
			return vc, err
		}
	}
	for view, decode := range views {
		want := decodeWindowed(opts, 1, gop, decode)
		if view == "whole" && slices.Contains(want.clouds, nil) {
			t.Fatalf("%s: the GOP does not decode: %v", name, want.errs)
		}
		for _, windows := range []int{2, 3, 8, 64} {
			if got := decodeWindowed(opts, windows, gop, decode); !sameDecode(got, want, true) {
				t.Fatalf("%s, %s: %d windows decode to other clouds, errors or ledger than one (%v, want %v)", name, view, windows, got.errs, want.errs)
			}
		}
	}
	for i, ef := range gop {
		for j, bad := range damaged(ef) {
			run := append(slices.Clone(gop[:i]), bad)
			want := decodeWindowed(opts, 1, run, full)
			for _, windows := range []int{2, 3, 8, 64} {
				if got := decodeWindowed(opts, windows, run, full); !sameDecode(got, want, false) {
					t.Fatalf("%s, frame %d, damage %d: %d windows decode to %v, one window to %v", name, i, j, windows, got.errs, want.errs)
				}
			}
		}
	}
}

// ledgerOf returns d's ledger as the pinned tests compare it.
func ledgerOf(d *edgesim.Device) []ledgerRow {
	var rows []ledgerRow
	for _, k := range d.Kernels() {
		rows = append(rows, ledgerRow{k.Name, k.Stage, k.Launches, k.Items, k.Ops, k.Bytes, k.SimTime})
	}
	return rows
}

// TestDecodeLedgerPinned pins the decode direction's accounting layer: the
// ledger of one I + one P decode — untiled, with both entropy stages, tiled,
// and layered-full over tiles — is the table captured at the commit before
// the decoder got its arena and its fused bodies: same kernels, same launch
// counts and order, same items, ops, bytes and simulated time.
func TestDecodeLedgerPinned(t *testing.T) {
	entropyOpts := layerOpts(IntraOnly, 0, 0)
	entropyOpts.EntropyGeometry = true
	entropyOpts.IntraAttr.Entropy = true
	layered := layerOpts(IntraInterV1, 4, 3)
	layered.EntropyGeometry = true
	layeredUntiled := layerOpts(IntraInterV1, 0, 3)
	layeredUntiled.EntropyGeometry = true
	for _, tc := range []struct {
		name   string
		opts   Options
		frames int
		want   []ledgerRow
	}{
		{"untiled I+P", layerOpts(IntraInterV1, 0, 0), 2, []ledgerRow{
			{"DecodeScan", "", 2, 159963, 3.999075e+06, 319926, 3999074},
			{"DecodeExpand", "", 20, 159963, 4.79889e+06, 1.59963e+06, 640321},
			{"MortonDecode", "", 2, 74060, 888720, 1.18496e+06, 84507},
			{"AttrParse", "", 1, 37029, 2.036595e+06, 111087, 2036595},
			{"UnpackBits", "", 3, 111087, 4.44348e+06, 333261, 282528},
			{"Reconstruct", "", 3, 4500, 3.33261e+06, 888696, 226896},
			{"InverseRescale", "", 2, 74060, 888720, 1.18496e+06, 84507},
			{"InterParse", "", 1, 37031, 1.48124e+06, 111093, 1481240},
			{"ReconstructP", "", 1, 2500, 3.147635e+06, 296248, 177633},
		}},
		{"untiled I, entropy geometry and attributes", entropyOpts, 1, []ledgerRow{
			// The frame's 79 952 raw occupancy bytes are a mode-2 chunk of three
			// slices, 37 427 B behind its mode byte (one coder state: 37 103 B).
			{"GeomEntropyDecode", "", 1, 37427, 5.61405e+06, 74854, 5614050},
			{"DecodeScan", "", 1, 79952, 1.9988e+06, 159904, 1998799},
			{"DecodeExpand", "", 10, 79952, 2.39856e+06, 799520, 320116},
			{"MortonDecode", "", 1, 37029, 444348, 592464, 42253},
			{"AttrEntropyDecode", "", 1, 48981, 7.34715e+06, 97962, 7347150},
			{"AttrParse", "", 1, 37029, 2.036595e+06, 111087, 2036595},
			{"UnpackBits", "", 3, 111087, 4.44348e+06, 333261, 282528},
			{"Reconstruct", "", 3, 4500, 3.33261e+06, 888696, 226896},
			{"InverseRescale", "", 1, 37029, 444348, 592464, 42253},
		}},
		{"tiled I+P", layerOpts(IntraInterV1, 4, 0), 2, []ledgerRow{
			{"TileDecode", "", 2, 74060, 8.8872e+06, 888720, 485072},
			{"MortonDecode", "", 2, 74060, 888720, 1.18496e+06, 84507},
			{"InverseRescale", "", 2, 74060, 888720, 1.18496e+06, 84507},
		}},
		{"layered full, untiled I+P, entropy geometry", layeredUntiled, 2, []ledgerRow{
			{"DecodeScan", "", 2, 159963, 3.999075e+06, 319926, 3999074},
			{"DecodeExpand", "", 20, 159963, 4.79889e+06, 1.59963e+06, 640321},
			{"MortonDecode", "", 2, 74060, 888720, 1.18496e+06, 84507},
			{"AttrParse", "", 1, 37029, 2.036595e+06, 111087, 2036595},
			{"UnpackBits", "", 3, 111087, 4.44348e+06, 333261, 282528},
			{"Reconstruct", "", 3, 4500, 3.33261e+06, 888696, 226896},
			{"InverseRescale", "", 2, 74060, 888720, 1.18496e+06, 84507},
			{"InterParse", "", 1, 37031, 1.48124e+06, 111093, 1481240},
			{"ReconstructP", "", 1, 2500, 3.147635e+06, 296248, 177633},
		}},
		{"layered full, tiled I+P, entropy geometry", layered, 2, []ledgerRow{
			{"TileDecode", "", 2, 74060, 8.8872e+06, 888720, 485072},
			{"MortonDecode", "", 2, 74060, 888720, 1.18496e+06, 84507},
			{"InverseRescale", "", 2, 74060, 888720, 1.18496e+06, 84507},
		}},
	} {
		if got := decodeLedger(t, tc.opts, tc.frames); !slices.Equal(got, tc.want) {
			t.Errorf("%s ledger:\n got %v\nwant %v", tc.name, got, tc.want)
		}
	}
}

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

// TestDecodedCloudsPinned pins what the decoder returns, frame by frame,
// over three GOPs of two frame sizes in every shape, per-viewer culling
// applied to three frames of four so that P-frames meet concealed and whole
// references: SHA-256 over every returned cloud, captured at the commit
// before the decoder got its arena. The three unculled shapes decode to the
// same clouds, as they must.
func TestDecodedCloudsPinned(t *testing.T) {
	const whole = "a1099ad583139a441e6450f66d8f3a7b28761b9fa9de5df4ccf7e39f9be57440"
	clouds := append(goldenFrames(t), frames(t, 3)...)
	for _, sh := range []struct {
		name           string
		tiles, layers  int
		marks          map[int]uint8
		ycocg, entropy bool
		want           string
	}{
		{name: "untiled", want: whole},
		{name: "untiled, YCoCg, both entropy stages", ycocg: true, entropy: true,
			want: "3ddf049ba23bf6e362e9942a60054b8a10e19ce615fa1536fbe459b0822da83a"},
		{name: "tiled", tiles: 4, want: whole},
		{name: "tiled, culled", tiles: 4, marks: map[int]uint8{1: TileOmitted, 2: TileCoarse},
			want: "dde05aef407c7875f870aec39f2e1e4f3d063356175b22b6751dcb752235f8b3"},
		{name: "8 tiles, first two, a middle one and the last omitted, both entropy stages", tiles: 8, entropy: true,
			marks: map[int]uint8{0: TileOmitted, 1: TileOmitted, 4: TileOmitted, 7: TileOmitted},
			want:  "4c86c4ab17827392bbd16653e211dfb72d7854a4a093b6ed1d098ac5463ebf76"},
		{name: "layered, both entropy stages", layers: 3, entropy: true, want: whole},
		{name: "layered tiles, culled, YCoCg", tiles: 4, layers: 3, ycocg: true, marks: map[int]uint8{0: TileCoarse, 3: TileOmitted},
			want: "7eef44a8ca89ef926475ac64908c589e11f328529f86f0d253d79cfcf0d725eb"},
	} {
		opts := layerOpts(IntraInterV1, sh.tiles, sh.layers)
		opts.IntraAttr.YCoCg = sh.ycocg
		opts.IntraAttr.Entropy = sh.entropy
		opts.EntropyGeometry = sh.entropy
		enc, dec := NewEncoder(dev(), opts), NewDecoder(dev(), opts)
		h := sha256.New()
		for i, vc := range clouds {
			ef, _, err := enc.EncodeFrame(vc)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case sh.marks == nil || i%4 == 3:
			case ef.Layered():
				ef = stripLayers(ef, sh.marks, 0)
			default:
				ef = stripTiles(ef, sh.marks)
			}
			out, err := dec.DecodeFrame(ef)
			if err != nil {
				t.Fatalf("%s frame %d: %v", sh.name, i, err)
			}
			var b [16]byte
			binary.LittleEndian.PutUint64(b[:8], uint64(len(out.Voxels)))
			h.Write(b[:8])
			for _, v := range out.Voxels {
				binary.LittleEndian.PutUint32(b[0:], v.X)
				binary.LittleEndian.PutUint32(b[4:], v.Y)
				binary.LittleEndian.PutUint32(b[8:], v.Z)
				b[12], b[13], b[14], b[15] = v.C.R, v.C.G, v.C.B, 0
				h.Write(b[:])
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != sh.want {
			t.Errorf("%s: decoded clouds hash to %s, want %s", sh.name, got, sh.want)
		}
	}
}

// hashCloud folds a decoded cloud — its length, then every voxel's position
// and colour — into h, the way TestDecodedCloudsPinned does.
func hashCloud(h hash.Hash, vc *geom.VoxelCloud) {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(len(vc.Voxels)))
	h.Write(b[:8])
	for _, v := range vc.Voxels {
		binary.LittleEndian.PutUint32(b[0:], v.X)
		binary.LittleEndian.PutUint32(b[4:], v.Y)
		binary.LittleEndian.PutUint32(b[8:], v.Z)
		b[12], b[13], b[14], b[15] = v.C.R, v.C.G, v.C.B, 0
		h.Write(b[:])
	}
}

// TestPartialDecodesPinned pins what a layer-shed viewer's decoder returns:
// SHA-256 over every cloud of TestDecodedCloudsPinned's frame set (three GOPs,
// two frame sizes, I- and P-frames) decoded from the first Sub of three
// layers — untiled, tiled, and tiled with one tile omitted and one coarse —
// captured at the commit before the partial decode moved into the one decode
// phase. The per-layer geometry entropy stage, off or on, decodes to the same
// clouds, as it must.
func TestPartialDecodesPinned(t *testing.T) {
	clouds := append(goldenFrames(t), frames(t, 3)...)
	culled := map[int]uint8{1: TileOmitted, 2: TileCoarse}
	for _, sh := range []struct {
		name  string
		sub   uint8
		tiles int
		marks map[int]uint8
		want  string
	}{
		{"sub 1, untiled", 1, 0, nil, "0a74123cd8323dc60042dba2ad2d65dd1fefbd0fa53b35f0ab2440d8794f2b86"},
		{"sub 1, tiled", 1, 4, nil, "8a0ddeaa071697df0651934c1c312a7f55ab3ae5070c34eb88039e2099ddee3d"},
		{"sub 1, tiled, culled", 1, 4, culled, "1f079b7905b2ecc9af086e67f9697bc7f12f77b2150a5097a66f4de3b98f6b56"},
		{"sub 2, untiled", 2, 0, nil, "e88e8369ca8dd6976bc4a85c28fcd1d23b81ef457c3ae96d50580bd3f4dbccdd"},
		{"sub 2, tiled", 2, 4, nil, "e364432fe3b3efe28fa09e4e8daa356730c30ba6db1ab0cf0e119d62ca865d07"},
		{"sub 2, tiled, culled", 2, 4, culled, "7ef5c034ee50487137762f9035d76ffe2a1ab1c4a58ed88efffe75c24be82b2c"},
	} {
		for _, entropy := range []bool{false, true} {
			opts := layerOpts(IntraInterV1, sh.tiles, 3)
			opts.EntropyGeometry = entropy
			enc, dec := NewEncoder(dev(), opts), NewDecoder(dev(), opts)
			h := sha256.New()
			for i, vc := range clouds {
				ef, _, err := enc.EncodeFrame(vc)
				if err != nil {
					t.Fatal(err)
				}
				out, err := dec.DecodeFrame(stripLayers(ef, sh.marks, sh.sub))
				if err != nil {
					t.Fatalf("%s frame %d (%v): %v", sh.name, i, ef.Type, err)
				}
				hashCloud(h, out)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != sh.want {
				t.Errorf("%s, entropy geometry %v: decoded clouds hash to %s, want %s", sh.name, entropy, got, sh.want)
			}
		}
	}
}

// TestPartialDecodeLedgerPinned is TestDecodeLedgerPinned for partial
// subscriptions: the ledger of one I + one P decode of the first Sub of three
// layers (entropy geometry on), untiled and over four tiles. A partial decode
// books what a full one books, from the counts of what it read: off the one
// unit of an untiled frame the offset scan over the prefix and one
// DecodeExpand per level, over tiles one TileDecode; then the fused pass as
// MortonDecode and InverseRescale over the cells it emitted. Before the
// partial decode moved into the one decode phase (where these rows were first
// captured) it booked no scan, DecodeExpand per tile per level — 64 and 72
// launches over four tiles, 1.33 and 1.57 ms — instead of TileDecode, and the
// pass as LoDUpscale, at MortonDecode's cost; the DecodeExpand and
// InverseRescale rows read the same then.
func TestPartialDecodeLedgerPinned(t *testing.T) {
	for _, tc := range []struct {
		name  string
		tiles int
		sub   uint8
		want  []ledgerRow
	}{
		{"sub 1, untiled I+P", 0, 1, []ledgerRow{
			{"DecodeScan", "", 2, 36050, 901250, 72100, 901250},
			{"DecodeExpand", "", 16, 36050, 1.0815e+06, 360500, 374156},
			{"MortonDecode", "", 2, 51245, 614940, 819920, 70795},
			{"InverseRescale", "", 2, 51245, 614940, 819920, 70795},
		}},
		{"sub 2, untiled I+P", 0, 2, []ledgerRow{
			{"DecodeScan", "", 2, 87295, 2.182375e+06, 174590, 2182375},
			{"DecodeExpand", "", 18, 87295, 2.61885e+06, 872950, 491146},
			{"MortonDecode", "", 2, 72668, 872016, 1.162688e+06, 83670},
			{"InverseRescale", "", 2, 72668, 872016, 1.162688e+06, 83670},
		}},
		{"sub 1, tiled I+P", 4, 1, []ledgerRow{
			{"TileDecode", "", 2, 74060, 8.8872e+06, 888720, 485072},
			{"MortonDecode", "", 2, 51245, 614940, 819920, 70795},
			{"InverseRescale", "", 2, 51245, 614940, 819920, 70795},
		}},
		{"sub 2, tiled I+P", 4, 2, []ledgerRow{
			{"TileDecode", "", 2, 74060, 8.8872e+06, 888720, 485072},
			{"MortonDecode", "", 2, 72668, 872016, 1.162688e+06, 83670},
			{"InverseRescale", "", 2, 72668, 872016, 1.162688e+06, 83670},
		}},
	} {
		opts := layerOpts(IntraInterV1, tc.tiles, 3)
		opts.EntropyGeometry = true
		got := viewLedger(t, opts, 2, func(ef *EncodedFrame) *EncodedFrame { return stripLayers(ef, nil, tc.sub) })
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s ledger:\n got %v\nwant %v", tc.name, got, tc.want)
		}
	}
}
