package pcc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

func TestDecodeProgressiveLevels(t *testing.T) {
	v := testVideo(t)
	f, err := v.Frame(0)
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions(IntraOnly)
	o.IntraAttr.Segments = 300
	enc := NewEncoderOptions(o)
	bits, _, err := enc.Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	prevPoints, prevBytes := 0, 0
	for level := uint(1); level <= uint(bits.Depth); level++ {
		coarse, prefix, err := DecodeProgressive(bits, level)
		if err != nil {
			t.Fatalf("level %d: %v", level, err)
		}
		if coarse.Len() < prevPoints {
			t.Fatalf("level %d: point count decreased (%d < %d)", level, coarse.Len(), prevPoints)
		}
		if prefix <= prevBytes {
			t.Fatalf("level %d: prefix not growing", level)
		}
		if err := coarse.Validate(); err != nil {
			t.Fatalf("level %d: %v", level, err)
		}
		prevPoints, prevBytes = coarse.Len(), prefix
	}
	// Full-level decode must have as many points as the decoded frame.
	dec := NewDecoder(o)
	full, err := dec.Decode(bits)
	if err != nil {
		t.Fatal(err)
	}
	if prevPoints != full.Len() {
		t.Fatalf("full-level progressive %d points != full decode %d", prevPoints, full.Len())
	}
}

func TestDecodeProgressiveCoarseIsClose(t *testing.T) {
	v := testVideo(t)
	f, _ := v.Frame(0)
	o := DefaultOptions(IntraOnly)
	o.IntraAttr.Segments = 300
	enc := NewEncoderOptions(o)
	bits, _, err := enc.Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	coarse, _, err := DecodeProgressive(bits, uint(bits.Depth)-3)
	if err != nil {
		t.Fatal(err)
	}
	// A level-(D-3) decode is within ~8 voxels of the original everywhere:
	// geometry PSNR must still be substantial.
	psnr, err := GeometryPSNR(f, coarse)
	if err != nil {
		t.Fatal(err)
	}
	if psnr < 40 {
		t.Fatalf("coarse PSNR %.1f dB too low", psnr)
	}
}

func TestDecodeProgressiveEntropyVariant(t *testing.T) {
	v := testVideo(t)
	f, _ := v.Frame(0)
	o := DefaultOptions(IntraOnly)
	o.IntraAttr.Segments = 300
	o.EntropyGeometry = true
	enc := NewEncoderOptions(o)
	bits, _, err := enc.Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	coarse, _, err := DecodeProgressive(bits, 4)
	if err != nil {
		t.Fatal(err)
	}
	if coarse.Len() == 0 {
		t.Fatal("entropy-coded stream must still LoD-decode (after full decompression)")
	}
}

// TestDecodeProgressiveLayered pins the layered fast path: the reported
// prefix is the sum of the consumed layers' wire lengths straight from the
// layer directory — a base-level decode reads exactly the base layer's
// bytes, never the rest of the stream — and the full-subscription decode
// matches the regular full decode's geometry.
func TestDecodeProgressiveLayered(t *testing.T) {
	v := testVideo(t)
	f, err := v.Frame(0)
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions(IntraOnly)
	o.IntraAttr.Segments = 300
	o.Layers = 3
	enc := NewEncoderOptions(o)
	bits, _, err := enc.Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	if !bits.Layered() {
		t.Fatal("frame not layered")
	}
	ld := bits.Layer
	spans := ld.Units[0]

	// Base decode: the prefix must be the directory's layer-0 geometry
	// length, byte-exact.
	base, prefix, err := DecodeProgressive(bits, uint(ld.BaseLevel))
	if err != nil {
		t.Fatal(err)
	}
	if prefix != int(spans[0].GeomLen) {
		t.Fatalf("base prefix %d bytes, directory says layer 0 is %d", prefix, spans[0].GeomLen)
	}
	if base.Len() == 0 {
		t.Fatal("base decode produced no points")
	}

	// Each enhancement level consumes exactly one more layer's bytes.
	want, prevPoints := int(spans[0].GeomLen), base.Len()
	for l := 1; l < int(ld.Layers); l++ {
		want += int(spans[l].GeomLen)
		coarse, prefix, err := DecodeProgressive(bits, uint(ld.BaseLevel)+uint(l))
		if err != nil {
			t.Fatalf("layer %d: %v", l, err)
		}
		if prefix != want {
			t.Fatalf("layer %d: prefix %d bytes, directory sum is %d", l, prefix, want)
		}
		if coarse.Len() < prevPoints {
			t.Fatalf("layer %d: point count decreased (%d < %d)", l, coarse.Len(), prevPoints)
		}
		prevPoints = coarse.Len()
	}

	// Full-subscription progressive geometry == the regular full decode's.
	full, err := NewDecoder(o).Decode(bits)
	if err != nil {
		t.Fatal(err)
	}
	if prevPoints != full.Len() {
		t.Fatalf("full-level layered progressive %d points != full decode %d", prevPoints, full.Len())
	}

	// A level request cut inside the base rounds up to the base layer, not
	// down to a partial entropy unit.
	_, p1, err := DecodeProgressive(bits, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != int(spans[0].GeomLen) {
		t.Fatalf("level-1 prefix %d, want whole base layer %d", p1, spans[0].GeomLen)
	}

	// Tiled layered frames have per-tile streams: no frame-wide prefix.
	o.Tiles = 4
	tbits, _, err := NewEncoderOptions(o).Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	if tbits.Tiled() {
		if _, _, err := DecodeProgressive(tbits, 4); err != ErrNotProgressive {
			t.Fatalf("tiled layered frame: got %v, want ErrNotProgressive", err)
		}
	}
}

func TestDecodeProgressiveRejectsBaseline(t *testing.T) {
	v := testVideo(t)
	f, _ := v.Frame(0)
	enc := NewEncoderOptions(DefaultOptions(TMC13))
	bits, _, err := enc.Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeProgressive(bits, 4); err == nil {
		t.Fatal("TMC13 stream must not progressively decode")
	}
}

// TestDecodeProgressivePinned pins what DecodeProgressive returns at every
// level — from 0 to one past the depth — of an unlayered raw frame, an
// unlayered entropy-coded frame and a three-layer frame: SHA-256 over each
// level's prefix bytes and cloud (positions and the unpopulated colours),
// captured at the commit before progressive decoding became a geometry-only
// call of the decoder's one unit body. I- and P-frames read the same: the call
// never touches attributes.
func TestDecodeProgressivePinned(t *testing.T) {
	v := testVideo(t)
	for _, tc := range []struct {
		name    string
		layers  int
		entropy bool
		want    string
	}{
		{"unlayered raw", 0, false, "824240b965f29e6077fd22d7af4e33b54eabdabf1da396aa0270e2db0e7805d9"},
		{"unlayered entropy", 0, true, "824240b965f29e6077fd22d7af4e33b54eabdabf1da396aa0270e2db0e7805d9"},
		{"three layers", 3, false, "35a389d9a87dd84d7bf8b08cb552f1e32e8621c6d9debb513e096dd4ae9be99a"},
		{"three layers, entropy", 3, true, "07b3967e6eca511db21b54892bfbcb775e8ea67d621f1abd88c5c4b89560c109"},
	} {
		o := DefaultOptions(IntraInterV1)
		o.IntraAttr.Segments, o.Inter.Segments = 300, 500
		o.Layers, o.EntropyGeometry = tc.layers, tc.entropy
		enc := NewEncoderOptions(o)
		h := sha256.New()
		for fi := 0; fi < 2; fi++ { // I, P
			f, err := v.Frame(fi)
			if err != nil {
				t.Fatal(err)
			}
			bits, _, err := enc.Encode(f)
			if err != nil {
				t.Fatal(err)
			}
			for level := uint(0); level <= uint(bits.Depth)+1; level++ {
				coarse, prefix, err := DecodeProgressive(bits, level)
				if err != nil {
					t.Fatalf("%s frame %d level %d: %v", tc.name, fi, level, err)
				}
				var b [16]byte
				binary.LittleEndian.PutUint64(b[0:], uint64(prefix))
				binary.LittleEndian.PutUint64(b[8:], uint64(coarse.Len()))
				h.Write(b[:])
				for _, p := range coarse.Voxels {
					binary.LittleEndian.PutUint32(b[0:], p.X)
					binary.LittleEndian.PutUint32(b[4:], p.Y)
					binary.LittleEndian.PutUint32(b[8:], p.Z)
					b[12], b[13], b[14], b[15] = p.C.R, p.C.G, p.C.B, 0
					h.Write(b[:])
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s: progressive decodes hash to %s, want %s", tc.name, got, tc.want)
		}
	}
}
