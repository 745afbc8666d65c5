package interframe

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/attr"
	"repro/internal/geom"
)

// blockDiff is the Equ. 2 distance between a P-block and an I-block as the
// codec defines it: the squared RGB distance over paired points, normalized
// by the block size (unpaired density mismatch shows up through the pairing
// itself). With equ2Match it is the float scan the encoders ran before the
// integer kernel, kept as the written-out definition the kernel is held to.
func blockDiff(iv, pv []geom.Voxel) float64 {
	kp, ki := len(pv), len(iv)
	if kp == 0 || ki == 0 {
		return math.Inf(1)
	}
	var sum float64
	for i := 0; i < kp; i++ {
		sum += float64(pv[i].C.Dist2(iv[pairIndex(i, kp, ki)].C))
	}
	return sum / float64(kp)
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// equ2Match scans P-block j's candidate window in ascending order and
// returns the best I-block and its distance.
func equ2Match(iFrame, pFrame []geom.Voxel, pBounds, iBounds []int, candidates, j int) (int, float64) {
	nBlocks, nIBlocks := len(pBounds)-1, len(iBounds)-1
	pv := pFrame[pBounds[j]:pBounds[j+1]]
	center := j * nIBlocks / nBlocks
	lo := center - candidates/2
	if lo < 0 {
		lo = 0
	}
	hi := lo + candidates
	if hi > nIBlocks {
		hi = nIBlocks
		if lo = hi - candidates; lo < 0 {
			lo = 0
		}
	}
	best := math.Inf(1)
	bi := center
	for c := lo; c < hi; c++ {
		d := blockDiff(iFrame[iBounds[c]:iBounds[c+1]], pv)
		// Ties break towards the window centre: the co-located block is the
		// most likely true correspondence and its pointer is the cheapest to
		// predict.
		if d < best || (d == best && absInt(c-center) < absInt(bi-center)) {
			best = d
			bi = c
		}
	}
	return bi, best
}

// colorFrame returns n voxels whose colours are drawn from a palette of the
// given number of grey-ish levels per channel (few levels force ties).
func colorFrame(rng *rand.Rand, n, levels int) []geom.Voxel {
	vs := make([]geom.Voxel, n)
	for i := range vs {
		c := func() uint8 { return uint8(rng.Intn(levels) * 255 / max(levels-1, 1)) }
		vs[i].C = geom.Color{R: c(), G: c(), B: c()}
	}
	return vs
}

func TestMatchBlockAgainstEqu2(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	smoothI := sortedFrame(31, 1600)
	zeroI := colorFrame(rng, 1600, 256)
	zeroP := colorFrame(rng, 1600, 256)
	// P-block 50 is an exact copy of I-block 57, seven off its centre.
	copy(zeroP[50*16:51*16], zeroI[57*16:58*16])
	onePtI := colorFrame(rng, 400, 256)
	onePtP := colorFrame(rng, 400, 256)
	onePtP[200].C = onePtI[231].C

	for _, tc := range []struct {
		name             string
		iF, pF           []geom.Voxel
		segs, candidates int
	}{
		{"single-point blocks", colorFrame(rng, 300, 256), colorFrame(rng, 300, 256), 50000, 100},
		{"single-point blocks, few colours", colorFrame(rng, 300, 3), colorFrame(rng, 300, 3), 50000, 100},
		{"single-point blocks, odd window", colorFrame(rng, 300, 4), colorFrame(rng, 300, 4), 50000, 7},
		{"single-point blocks, one candidate", colorFrame(rng, 50, 4), colorFrame(rng, 50, 4), 50000, 1},
		{"single-point blocks, nI > nP", colorFrame(rng, 300, 6), colorFrame(rng, 211, 6), 50000, 40},
		{"single-point blocks, nI < nP", colorFrame(rng, 211, 6), colorFrame(rng, 300, 6), 50000, 40},
		{"single-point blocks, zero match off-centre", onePtI, onePtP, 50000, 100},
		{"kp == ki == 16", smoothI, jitterColors(smoothI, 32, 9), 100, 20},
		{"kp == ki == 16, few colours", colorFrame(rng, 1600, 2), colorFrame(rng, 1600, 2), 100, 20},
		{"kp == ki == 16, zero match off-centre", zeroI, zeroP, 100, 30},
		{"blocks of 15 and 16", colorFrame(rng, 1555, 5), colorFrame(rng, 1555, 5), 100, 24},
		{"kp < ki", colorFrame(rng, 1000, 8), colorFrame(rng, 800, 8), 100, 20},
		{"kp > ki", colorFrame(rng, 800, 8), colorFrame(rng, 1000, 8), 100, 20},
		{"kp = 3 ki", colorFrame(rng, 500, 3), colorFrame(rng, 1500, 3), 100, 16},
		{"nI < Segments < nP", colorFrame(rng, 90, 4), colorFrame(rng, 250, 4), 100, 30},
		{"nP < Segments < nI", colorFrame(rng, 250, 4), colorFrame(rng, 90, 4), 100, 30},
		{"more candidates than I-blocks", colorFrame(rng, 640, 6), colorFrame(rng, 640, 6), 40, 500},
		{"more candidates than single-point I-blocks", colorFrame(rng, 60, 3), colorFrame(rng, 60, 3), 50000, 100},
		{"all colours equal, single-point", colorFrame(rng, 200, 1), colorFrame(rng, 200, 1), 50000, 100},
		{"all colours equal, 16-point", colorFrame(rng, 1600, 1), colorFrame(rng, 1600, 1), 100, 20},
		{"all colours equal, kp != ki", colorFrame(rng, 900, 1), colorFrame(rng, 1600, 1), 100, 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pBounds := attr.SegmentBoundsIn(nil, len(tc.pF), tc.segs)
			iBounds := attr.SegmentBoundsIn(nil, len(tc.iF), tc.segs)
			m := matcher{
				ip: packColors(nil, tc.iF), pp: packColors(nil, tc.pF),
				iBounds: iBounds, pBounds: pBounds, candidates: tc.candidates,
			}
			offCentre := 0
			for j := 0; j+1 < len(pBounds); j++ {
				wantRef, wantDiff := equ2Match(tc.iF, tc.pF, pBounds, iBounds, tc.candidates, j)
				ref, sum := m.match(j)
				// Bit-for-bit: the reuse decision compares this float.
				diff := float64(sum) / float64(pBounds[j+1]-pBounds[j])
				if ref != wantRef || diff != wantDiff {
					t.Fatalf("P-block %d: matcher (%d, %v), Equ. 2 scan (%d, %v)", j, ref, diff, wantRef, wantDiff)
				}
				if ref != j*(len(iBounds)-1)/(len(pBounds)-1) {
					offCentre++
				}
			}
			t.Logf("%d P-blocks, %d matched off-centre", len(pBounds)-1, offCentre)
		})
	}
}

// TestPackedDeltaBlockMatchesVoxels pins the other reader of the planes:
// a delta payload built from packed colours holds, per channel, the deltas
// pc − ic over pairIndex.
func TestPackedDeltaBlockMatchesVoxels(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, shape := range [][2]int{{1, 1}, {16, 16}, {8, 10}, {10, 8}, {5, 1}, {1, 5}} {
		kp, ki := shape[0], shape[1]
		pv, iv := colorFrame(rng, kp, 256), colorFrame(rng, ki, 256)
		got := new(EncodeScratch).appendDeltaBlock(nil, packColors(nil, iv), packColors(nil, pv), 1)
		var want []byte
		for ch := 0; ch < 3; ch++ {
			deltas := make([]int32, kp)
			for i := range deltas {
				ic, pc := iv[pairIndex(i, kp, ki)].C, pv[i].C
				deltas[i] = [3]int32{int32(pc.R) - int32(ic.R), int32(pc.G) - int32(ic.G), int32(pc.B) - int32(ic.B)}[ch]
			}
			base := attr.Median(deltas, nil)
			want = binary.AppendVarint(want, int64(base))
			for i := range deltas {
				deltas[i] -= base
			}
			want = attr.AppendPacked(want, deltas)
		}
		if string(got) != string(want) {
			t.Fatalf("kp=%d ki=%d: payload %x, want %x", kp, ki, got, want)
		}
	}
}

// BenchmarkBlockMatch tracks the P-frame encoder in the regimes the block
// matcher distinguishes: single-point blocks (frames smaller than Segments,
// what bench/ runs), the paper's 16-point blocks, and frames of different
// sizes, where pairing is not the identity. MB/s reads as millions of
// candidate pair-points per second.
func BenchmarkBlockMatch(b *testing.B) {
	p := DefaultParamsV1()
	for _, bc := range []struct {
		name   string
		nI, nP int
	}{
		{"points=42k,blocks=1pt", 42304, 42304},
		{"points=800k,blocks=16pt", 800000, 800000},
		{"kp≠ki", 500000, 400000},
	} {
		b.Run(bc.name, func(b *testing.B) {
			iF := sortedFrame(20, bc.nI)
			// A smaller P-frame keeps an even subset of the reference's
			// points, so the blocks still cover the same regions.
			pF := make([]geom.Voxel, bc.nP)
			for i := range pF {
				pF[i] = iF[i*bc.nI/bc.nP]
			}
			pF = jitterColors(pF, 21, 6)
			d := dev()
			var sc EncodeScratch
			_, st, err := EncodePWith(d, iF, pF, p, &sc) // grow the arena
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetBytes(int64(bc.nP * p.Candidates))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := EncodePWith(d, iF, pF, p, &sc); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(st.ReuseFraction(), "reuse")
		})
	}
}
