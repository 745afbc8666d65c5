package attr

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

func randColors(seed int64, n int) []geom.Color {
	rng := rand.New(rand.NewSource(seed))
	out := make([]geom.Color, n)
	for i := range out {
		// Smooth-ish field with noise, like Morton-sorted scans.
		base := uint8(128 + 100*ri(rng, i))
		out[i] = geom.Color{
			R: base + uint8(rng.Intn(17)),
			G: base/2 + uint8(rng.Intn(9)),
			B: 255 - base + uint8(rng.Intn(5)),
		}
	}
	return out
}

// encodeIntraTile codes the segment window [segLo, segLo+segCount) of the
// grid gbounds as a tile stream: the body over the window, then the tile
// framing of it.
func encodeIntraTile(colors []geom.Color, p Params, gbounds []int, segLo, segCount int, sc *Scratch, recon []geom.Color) ([]byte, error) {
	var c Columns
	c.Reset(gbounds, p, 1)
	if err := sc.EncodeWindow(&c, 0, colors, segLo, segCount, recon); err != nil {
		return nil, err
	}
	return c.EncodeIntraTile(nil, 0)
}

func ri(rng *rand.Rand, i int) float64 { return float64(i%97)/97 - 0.5 + rng.Float64()*0.02 }

// TestTileIntraDecodeExact pins the tiled attribute invariant: splitting the
// frame's segments into contiguous tile windows and coding each tile
// independently reproduces exactly the untiled decoder's output — per
// segment the Base+Deltas math is identical; only the framing differs.
func TestTileIntraDecodeExact(t *testing.T) {
	d := dev()
	for _, tc := range []struct {
		n     int
		p     Params
		tiles int
	}{
		{5000, Params{Segments: 64, QStep: 4, Layers: 2}, 4},
		{5000, Params{Segments: 64, QStep: 4, Layers: 2, YCoCg: true}, 3},
		{5000, Params{Segments: 64, QStep: 1, Layers: 1}, 8},
		{5000, Params{Segments: 64, QStep: 8, Layers: 2, Entropy: true}, 2},
		{37, Params{Segments: 100, QStep: 4, Layers: 2}, 5}, // n < Segments
		{64, Params{Segments: 64, QStep: 2, Layers: 2}, 64}, // one point per tile
	} {
		colors := randColors(int64(tc.n), tc.n)
		full, err := Encode(d, colors, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Decode(d, full)
		if err != nil {
			t.Fatal(err)
		}

		p := tc.p.normalized()
		gbounds := SegmentBoundsIn(nil, tc.n, p.Segments)
		nSeg := len(gbounds) - 1
		cuts := SegmentBoundsIn(nil, nSeg, tc.tiles)
		var sc Scratch
		got := make([]geom.Color, 0, tc.n)
		for ti := 0; ti+1 < len(cuts); ti++ {
			segLo, segHi := cuts[ti], cuts[ti+1]
			if segLo == segHi {
				continue
			}
			lo, hi := gbounds[segLo], gbounds[segHi]
			recon := make([]geom.Color, hi-lo)
			stream, err := encodeIntraTile(colors[lo:hi], tc.p, gbounds, segLo, segHi-segLo, &sc, recon)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := DecodeIntraTile(stream)
			if err != nil {
				t.Fatal(err)
			}
			if len(dec) != hi-lo {
				t.Fatalf("n=%d tiles=%d tile %d: decoded %d colours, want %d", tc.n, tc.tiles, ti, len(dec), hi-lo)
			}
			for i := range dec {
				if dec[i] != recon[i] {
					t.Fatalf("n=%d tiles=%d tile %d: recon differs from decode at %d: %v vs %v", tc.n, tc.tiles, ti, i, recon[i], dec[i])
				}
			}
			got = append(got, dec...)
		}
		if len(got) != len(want) {
			t.Fatalf("n=%d tiles=%d: reassembled %d colours, want %d", tc.n, tc.tiles, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d tiles=%d: colour %d differs: tiled %v untiled %v", tc.n, tc.tiles, i, got[i], want[i])
			}
		}
	}
}

func TestTileIntraErrors(t *testing.T) {
	var sc Scratch
	colors := randColors(1, 100)
	gb := SegmentBoundsIn(nil, 100, 10)
	p := Params{Segments: 10, QStep: 4, Layers: 2}
	if _, err := encodeIntraTile(colors[:5], p, gb, 0, 2, &sc, nil); err == nil {
		t.Fatal("size mismatch must error")
	}
	if _, err := encodeIntraTile(colors, p, gb, 8, 3, &sc, nil); err == nil {
		t.Fatal("window past end must error")
	}
	if _, err := encodeIntraTile(colors[:20], p, gb, 0, 2, &sc, colors[:3]); err == nil {
		t.Fatal("bad recon length must error")
	}
	if _, err := DecodeIntraTile(nil); err == nil {
		t.Fatal("empty stream must error")
	}
	if _, err := DecodeIntraTile([]byte{7, 1, 2}); err == nil {
		t.Fatal("bad flag byte must error")
	}
	// Valid tile stream, then truncate: every prefix must fail cleanly.
	stream, err := encodeIntraTile(colors[:20], p, gb, 0, 2, &sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(stream); cut++ {
		if _, err := DecodeIntraTile(stream[:cut]); err == nil {
			t.Fatalf("truncated stream (len %d) must error", cut)
		}
	}
}

// TestTileBodyIsUntiledBody: there is one decode body. A tile stream whose
// window is every segment of the frame decodes to the untiled stream's
// colours — and both to the encoder's own reconstruction — across layers,
// colour space, quantization and segment size.
func TestTileBodyIsUntiledBody(t *testing.T) {
	d := dev()
	const n = 2000
	colors := randColors(9, n)
	var sc Scratch
	var ds DecodeScratch
	for _, layers := range []int{1, 2} {
		for _, ycocg := range []bool{false, true} {
			for _, qstep := range []int{1, 4} {
				for _, perSeg := range []int{1, 16, 25} {
					p := Params{Segments: n / perSeg, QStep: qstep, Layers: layers, YCoCg: ycocg}
					name := fmt.Sprintf("%+v", p)
					recon := make([]geom.Color, n)
					whole, err := EncodeWith(d, colors, p, new(Scratch), recon)
					if err != nil {
						t.Fatal(err)
					}
					want := make([]geom.Color, n)
					if err := decodeOne(&ds, want, whole); err != nil {
						t.Fatalf("%s: untiled: %v", name, err)
					}
					gbounds := SegmentBoundsIn(nil, n, p.Segments)
					tile, err := encodeIntraTile(colors, p, gbounds, 0, len(gbounds)-1, &sc, nil)
					if err != nil {
						t.Fatal(err)
					}
					got := make([]geom.Color, n)
					st, err := ds.OpenTile(tile, n)
					if err == nil {
						err = ds.DecodeWindow(got, &st, 0, 1)
					}
					if err != nil {
						t.Fatalf("%s: tile over every segment: %v", name, err)
					}
					if !slices.Equal(got, want) || !slices.Equal(want, recon) {
						t.Errorf("%s: tile framing, untiled framing and encoder reconstruction disagree", name)
					}
					// The encode side's twin: one body call, two framings. The
					// streams are the ones above and differ in their headers
					// only — the base columns and residual bytes behind them,
					// and the reconstruction, are the same.
					var c Columns
					c.Reset(gbounds, p, 1)
					recon2 := make([]geom.Color, n)
					if err := sc.EncodeWindow(&c, 0, colors, 0, len(gbounds)-1, recon2); err != nil {
						t.Fatal(err)
					}
					frame := c.AppendFrame(d, nil)
					tile2, err := c.EncodeIntraTile(nil, 0)
					if err != nil {
						t.Fatal(err)
					}
					uv := func(vs ...int) (n int) {
						for _, v := range vs {
							n += len(binary.AppendUvarint(nil, uint64(v)))
						}
						return n
					}
					nSeg := len(gbounds) - 1
					frameHdr, tileHdr := 3+uv(n, p.Segments, qstep), 3+uv(n, nSeg, qstep, 0, nSeg)
					if !bytes.Equal(frame, whole) || !bytes.Equal(tile2, tile) || !bytes.Equal(frame[frameHdr:], tile2[tileHdr:]) || !slices.Equal(recon2, recon) {
						t.Errorf("%s: one body call framed twice disagrees with the two encoders", name)
					}
					// Either framing refuses a destination of another size.
					if _, err := ds.OpenTile(tile, n-1); err == nil || decodeOne(&ds, want[1:], whole) == nil {
						t.Errorf("%s: a %d-colour destination took a %d-point stream", name, n-1, n)
					}
				}
			}
		}
	}
}

// TestDecodeWindowIsWholeSlice: a window of the untiled stream decodes to
// the matching slice of the whole-stream decode and writes nothing else, at
// 1 to 64 windows across layers, colour space, quantization, segment size and
// the entropy stage; and the windows of a truncated or bit-flipped stream
// fail exactly when the whole-stream decode does.
func TestDecodeWindowIsWholeSlice(t *testing.T) {
	d := dev()
	const n = 1000
	colors := randColors(5, n)
	for _, layers := range []int{1, 2} {
		for _, ycocg := range []bool{false, true} {
			for _, qstep := range []int{1, 4} {
				for _, perSeg := range []int{1, 16, 25} {
					for _, entropy := range []bool{false, true} {
						p := Params{Segments: n / perSeg, QStep: qstep, Layers: layers, YCoCg: ycocg, Entropy: entropy}
						whole, err := Encode(d, colors, p)
						if err != nil {
							t.Fatal(err)
						}
						want, err := Decode(d, whole)
						if err != nil {
							t.Fatal(err)
						}
						var open DecodeScratch
						st, err := open.OpenFrame(d, whole, n)
						if err != nil {
							t.Fatal(err)
						}
						gb := SegmentBoundsIn(nil, n, p.Segments)
						nSeg := len(gb) - 1
						for _, windows := range []int{1, 2, 3, 8, 64} {
							for w := 0; w < windows; w++ {
								lo, hi := gb[w*nSeg/windows], gb[(w+1)*nSeg/windows]
								got := make([]geom.Color, n)
								var ws DecodeScratch
								if err := ws.DecodeWindow(got, &st, w, windows); err != nil {
									t.Fatalf("%+v window %d of %d: %v", p, w, windows, err)
								}
								if !slices.Equal(got[lo:hi], want[lo:hi]) || slices.ContainsFunc(got[:lo], nonZero) || slices.ContainsFunc(got[hi:], nonZero) {
									t.Fatalf("%+v window %d of %d: not the whole decode's colours [%d,%d)", p, w, windows, lo, hi)
								}
							}
						}
						if entropy {
							continue // a damaged entropy stream fails as it unwraps, before any window
						}
						for i := 8; i < len(whole); i += len(whole)/23 + 1 {
							flipped := bytes.Clone(whole)
							flipped[i] ^= 0x5A
							for _, bad := range [][]byte{whole[:i], flipped} {
								var ds DecodeScratch
								st, err := ds.OpenFrame(d, bad, n)
								if err != nil {
									continue
								}
								errWhole := ds.DecodeWindow(make([]geom.Color, n), &st, 0, 1)
								var errWin error
								for w := 0; w < 3 && errWin == nil; w++ {
									errWin = ds.DecodeWindow(make([]geom.Color, n), &st, w, 3)
								}
								if errWhole != errWin {
									t.Fatalf("%+v, damaged at byte %d: whole stream %v, three windows %v", p, i, errWhole, errWin)
								}
							}
						}
					}
				}
			}
		}
	}
}

func nonZero(c geom.Color) bool { return c != geom.Color{} }

// TestWindowCutInvariant: the untiled stream does not show how the frame was
// cut into windows, nor the order their bodies ran in.
func TestWindowCutInvariant(t *testing.T) {
	d := dev()
	const n = 1000
	colors := randColors(3, n)
	for _, p := range []Params{
		{Segments: 40, QStep: 4, Layers: 2},
		{Segments: 1000, QStep: 1, Layers: 1, YCoCg: true},
		{Segments: 7, QStep: 3, Layers: 2, Entropy: true},
	} {
		want, err := Encode(d, colors, p)
		if err != nil {
			t.Fatal(err)
		}
		gbounds := SegmentBoundsIn(nil, n, p.Segments)
		nSeg := len(gbounds) - 1
		for _, windows := range []int{1, 2, 3, 8, 64} {
			var c Columns
			var sc Scratch
			c.Reset(gbounds, p, windows)
			recon := make([]geom.Color, n)
			for _, w := range rand.New(rand.NewSource(int64(windows))).Perm(windows) {
				segLo, segHi := w*nSeg/windows, (w+1)*nSeg/windows
				lo, hi := gbounds[segLo], gbounds[segHi]
				if err := sc.EncodeWindow(&c, w, colors[lo:hi], segLo, segHi-segLo, recon[lo:hi]); err != nil {
					t.Fatal(err)
				}
			}
			if got := c.AppendFrame(d, nil); !bytes.Equal(got, want) {
				t.Errorf("%+v in %d windows is not the one-window stream", p, windows)
			}
			if dec, err := Decode(d, want); err != nil || !slices.Equal(dec, recon) {
				t.Errorf("%+v in %d windows: reconstruction is not the decoder's output (%v)", p, windows, err)
			}
		}
	}
}
