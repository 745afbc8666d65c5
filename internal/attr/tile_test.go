package attr

import (
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
		gbounds := SegmentBounds(tc.n, p.Segments)
		nSeg := len(gbounds) - 1
		cuts := SegmentBounds(nSeg, tc.tiles)
		var sc TileScratch
		got := make([]geom.Color, 0, tc.n)
		for ti := 0; ti+1 < len(cuts); ti++ {
			segLo, segHi := cuts[ti], cuts[ti+1]
			if segLo == segHi {
				continue
			}
			lo, hi := gbounds[segLo], gbounds[segHi]
			recon := make([]geom.Color, hi-lo)
			stream, err := EncodeIntraTile(colors[lo:hi], tc.p, tc.n, gbounds, segLo, segHi-segLo, &sc, recon)
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
	var sc TileScratch
	colors := randColors(1, 100)
	gb := SegmentBounds(100, 10)
	p := Params{Segments: 10, QStep: 4, Layers: 2}
	if _, err := EncodeIntraTile(colors[:5], p, 100, gb, 0, 2, &sc, nil); err == nil {
		t.Fatal("size mismatch must error")
	}
	if _, err := EncodeIntraTile(colors, p, 100, gb, 8, 3, &sc, nil); err == nil {
		t.Fatal("window past end must error")
	}
	if _, err := EncodeIntraTile(colors[:20], p, 100, gb, 0, 2, &sc, colors[:3]); err == nil {
		t.Fatal("bad recon length must error")
	}
	if _, err := DecodeIntraTile(nil); err == nil {
		t.Fatal("empty stream must error")
	}
	if _, err := DecodeIntraTile([]byte{7, 1, 2}); err == nil {
		t.Fatal("bad flag byte must error")
	}
	// Valid tile stream, then truncate: every prefix must fail cleanly.
	stream, err := EncodeIntraTile(colors[:20], p, 100, gb, 0, 2, &sc, nil)
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
	var sc TileScratch
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
					if err := ds.Decode(d, want, whole); err != nil {
						t.Fatalf("%s: untiled: %v", name, err)
					}
					gbounds := SegmentBounds(n, p.Segments)
					tile, err := EncodeIntraTile(colors, p, n, gbounds, 0, len(gbounds)-1, &sc, nil)
					if err != nil {
						t.Fatal(err)
					}
					got := make([]geom.Color, n)
					if err := ds.DecodeTile(got, tile); err != nil {
						t.Fatalf("%s: tile over every segment: %v", name, err)
					}
					if !slices.Equal(got, want) || !slices.Equal(want, recon) {
						t.Errorf("%s: tile framing, untiled framing and encoder reconstruction disagree", name)
					}
					// Either framing refuses a destination of another size.
					if ds.Decode(d, want[1:], whole) == nil || ds.DecodeTile(got[1:], tile) == nil {
						t.Errorf("%s: a %d-colour destination took a %d-point stream", name, n-1, n)
					}
				}
			}
		}
	}
}
