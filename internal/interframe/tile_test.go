package interframe

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/attr"
	"repro/internal/geom"
)

// encodePTile codes the block window [bLo, bLo+bCount) of the grids as a tile
// stream: the body over the window, then the tile framing of it.
func encodePTile(iPack, pPack []uint32, p Params, pBounds, iBounds []int, bLo, bCount int, sc *EncodeScratch) ([]byte, Stats, error) {
	var c Columns
	c.Reset(pBounds, iBounds, p, 1)
	st, err := sc.EncodeWindow(&c, 0, iPack, pPack, bLo, bCount)
	if err != nil {
		return nil, Stats{}, err
	}
	stream, err := c.EncodePTile(nil, 0)
	return stream, st, err
}

// TestTilePDecodeExact pins the tiled inter invariant: splitting the
// P-frame's blocks into contiguous tile windows and coding each window
// independently (with the global grids) reproduces exactly the untiled
// decoder's output, with identical per-tile reuse statistics.
func TestTilePDecodeExact(t *testing.T) {
	d := dev()
	iF := sortedFrame(11, 6000)
	pF := jitterColors(iF, 12, 12)
	for _, tc := range []struct {
		p     Params
		tiles int
	}{
		{Params{Segments: 200, Candidates: 40, Threshold: 45, QStep: 4}, 4},
		{Params{Segments: 200, Candidates: 40, Threshold: -1, QStep: 1}, 3},  // all delta
		{Params{Segments: 200, Candidates: 40, Threshold: 1e9, QStep: 4}, 8}, // all reuse
	} {
		full, fullSt, err := EncodeP(d, iF, pF, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := DecodeP(d, full, iF)
		if err != nil {
			t.Fatal(err)
		}

		p := tc.p.normalized()
		pBounds := attr.SegmentBoundsIn(nil, len(pF), p.Segments)
		iBounds := attr.SegmentBoundsIn(nil, len(iF), p.Segments)
		nBlocks := len(pBounds) - 1
		cuts := attr.SegmentBoundsIn(nil, nBlocks, tc.tiles)
		iPack, pPack := packColors(nil, iF), packColors(nil, pF)
		var sc EncodeScratch
		var sum Stats
		next := 0
		for ti := 0; ti+1 < len(cuts); ti++ {
			bLo, bHi := cuts[ti], cuts[ti+1]
			if bLo == bHi {
				continue
			}
			stream, st, err := encodePTile(iPack, pPack, tc.p, pBounds, iBounds, bLo, bHi-bLo, &sc)
			if err != nil {
				t.Fatal(err)
			}
			sum.Blocks += st.Blocks
			sum.DirectReuse += st.DirectReuse
			sum.DeltaBlocks += st.DeltaBlocks
			colors, lo, hi, err := DecodePTile(stream, iF)
			if err != nil {
				t.Fatalf("tiles=%d tile %d: %v", tc.tiles, ti, err)
			}
			if lo != next || hi-lo != len(colors) || lo != pBounds[bLo] || hi != pBounds[bHi] {
				t.Fatalf("tiles=%d tile %d: range [%d,%d) len %d, expected start %d", tc.tiles, ti, lo, hi, len(colors), next)
			}
			for i, c := range colors {
				if c != want[lo+i] {
					t.Fatalf("tiles=%d tile %d: colour %d differs: %v vs %v", tc.tiles, ti, lo+i, c, want[lo+i])
				}
			}
			next = hi
		}
		if next != len(pF) {
			t.Fatalf("tiles=%d: covered %d of %d points", tc.tiles, next, len(pF))
		}
		if sum != fullSt {
			t.Fatalf("tiles=%d: stats %+v != untiled %+v", tc.tiles, sum, fullSt)
		}
	}
}

func TestTilePErrors(t *testing.T) {
	iF := sortedFrame(21, 500)
	pF := jitterColors(iF, 22, 5)
	p := Params{Segments: 50, Candidates: 10, Threshold: 45, QStep: 4}.normalized()
	pBounds := attr.SegmentBoundsIn(nil, len(pF), p.Segments)
	iBounds := attr.SegmentBoundsIn(nil, len(iF), p.Segments)
	iPack, pPack := packColors(nil, iF), packColors(nil, pF)
	var sc EncodeScratch
	if _, _, err := encodePTile(iPack, pPack, p, pBounds, iBounds, 48, 5, &sc); err == nil {
		t.Fatal("window past end must error")
	}
	if _, _, err := encodePTile(nil, pPack, p, pBounds, attr.SegmentBoundsIn(nil, 0, p.Segments), 0, 1, &sc); err == nil {
		t.Fatal("empty reference must error")
	}
	if _, _, _, err := DecodePTile(nil, iF); err == nil {
		t.Fatal("empty stream must error")
	}
	stream, _, err := encodePTile(iPack, pPack, p, pBounds, iBounds, 0, 5, &sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := DecodePTile(stream, nil); err == nil {
		t.Fatal("missing reference must error")
	}
	for cut := 1; cut < len(stream); cut++ {
		if _, _, _, err := DecodePTile(stream[:cut], iF); err == nil {
			t.Fatalf("truncated stream (len %d) must error", cut)
		}
	}
}

// TestDecodeWindowIsWholeSlice: a window of the untiled P stream decodes to
// the matching slice of the whole-stream decode and writes nothing else, at 1
// to 64 windows over mixed, all-delta and all-reuse blocks of one or many
// points and pointers of one or two bytes; and the windows of a truncated or
// bit-flipped stream fail exactly when the whole-stream decode does.
func TestDecodeWindowIsWholeSlice(t *testing.T) {
	d := dev()
	iF := sortedFrame(41, 3000)
	pF := jitterColors(sortedFrame(42, 2700), 43, 10)
	ref := frameColors(iF)
	for _, p := range []Params{
		{Segments: 200, Candidates: 40, Threshold: 45, QStep: 4},
		{Segments: 5000, Candidates: 100, Threshold: 45, QStep: 1},  // one point per block
		{Segments: 5000, Candidates: 1000, Threshold: 20, QStep: 2}, // two-byte pointers
		{Segments: 7, Candidates: 3, Threshold: -1, QStep: 2},       // all delta
		{Segments: 300, Candidates: 20, Threshold: 1e9, QStep: 4},   // all reuse
	} {
		whole, _, err := EncodeP(d, iF, pF, p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := DecodeP(d, whole, iF)
		if err != nil {
			t.Fatal(err)
		}
		st, err := OpenP(d, whole, len(pF))
		if err != nil {
			t.Fatal(err)
		}
		pb := attr.SegmentBoundsIn(nil, len(pF), p.Segments)
		nBlocks := len(pb) - 1
		for _, windows := range []int{1, 2, 3, 8, 64} {
			for w := 0; w < windows; w++ {
				lo, hi := pb[w*nBlocks/windows], pb[(w+1)*nBlocks/windows]
				got := make([]geom.Color, len(pF))
				var ws DecodeScratch
				if err := ws.DecodeWindow(got, ref, &st, w, windows); err != nil {
					t.Fatalf("%+v window %d of %d: %v", p, w, windows, err)
				}
				set := func(c geom.Color) bool { return c != geom.Color{} }
				if !slices.Equal(got[lo:hi], want[lo:hi]) || slices.ContainsFunc(got[:lo], set) || slices.ContainsFunc(got[hi:], set) {
					t.Fatalf("%+v window %d of %d: not the whole decode's colours [%d,%d)", p, w, windows, lo, hi)
				}
			}
		}
		for i := 4; i < len(whole); i += len(whole)/29 + 1 {
			flipped := bytes.Clone(whole)
			flipped[i] ^= 0xA5
			for _, bad := range [][]byte{whole[:i], flipped} {
				st, err := OpenP(d, bad, len(pF))
				if err != nil {
					continue
				}
				var ds DecodeScratch
				errWhole := ds.DecodeWindow(make([]geom.Color, len(pF)), ref, &st, 0, 1)
				var errWin error
				for w := 0; w < 3 && errWin == nil; w++ {
					errWin = ds.DecodeWindow(make([]geom.Color, len(pF)), ref, &st, w, 3)
				}
				if errWhole != errWin || errWin != nil && errWin != ErrBadStream {
					t.Fatalf("%+v, damaged at byte %d: whole stream %v, three windows %v", p, i, errWhole, errWin)
				}
			}
		}
	}
}

// TestWindowCutInvariant: the untiled stream does not show how the P-frame
// was cut into windows, nor the order their bodies ran in; and one body call
// over every block frames to the same pointers and payloads either way.
func TestWindowCutInvariant(t *testing.T) {
	d := dev()
	iF := sortedFrame(31, 3000)
	pF := jitterColors(sortedFrame(32, 2700), 33, 10)
	iPack, pPack := packColors(nil, iF), packColors(nil, pF)
	for _, p := range []Params{
		{Segments: 200, Candidates: 40, Threshold: 45, QStep: 4},
		{Segments: 5000, Candidates: 100, Threshold: 45, QStep: 1}, // one point per block
		{Segments: 7, Candidates: 3, Threshold: -1, QStep: 2},      // all delta
	} {
		want, wantSt, err := EncodeP(d, iF, pF, p)
		if err != nil {
			t.Fatal(err)
		}
		pBounds, iBounds := attr.SegmentBoundsIn(nil, len(pF), p.Segments), attr.SegmentBoundsIn(nil, len(iF), p.Segments)
		nBlocks := len(pBounds) - 1
		for _, windows := range []int{1, 2, 3, 8, 64} {
			var c Columns
			var sc EncodeScratch
			var sum Stats
			c.Reset(pBounds, iBounds, p, windows)
			for _, w := range rand.New(rand.NewSource(int64(windows))).Perm(windows) {
				bLo, bHi := w*nBlocks/windows, (w+1)*nBlocks/windows
				st, err := sc.EncodeWindow(&c, w, iPack, pPack, bLo, bHi-bLo)
				if err != nil {
					t.Fatal(err)
				}
				sum.Blocks += st.Blocks
				sum.DirectReuse += st.DirectReuse
				sum.DeltaBlocks += st.DeltaBlocks
			}
			got := c.AppendFrame(d, nil)
			if !bytes.Equal(got, want) || sum != wantSt {
				t.Errorf("%+v in %d windows is not the one-window stream (stats %+v, want %+v)", p, windows, sum, wantSt)
			}
			if windows > 1 {
				continue
			}
			// One window over every block: the tile framing's bytes behind
			// its two extra varints are the untiled framing's.
			tile, err := c.EncodePTile(nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			hdr := len(c.appendHeader(nil))
			skip := len(binary.AppendUvarint(binary.AppendUvarint(nil, 0), uint64(nBlocks)))
			if !bytes.Equal(tile[:hdr], got[:hdr]) || !bytes.Equal(tile[hdr+skip:], got[hdr:]) {
				t.Errorf("%+v: tile framing over every block differs from the untiled framing past its window", p)
			}
		}
	}
}
