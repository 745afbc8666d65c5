package interframe

// The block-match kernel: the one implementation of the Equ. 2 candidate
// scan, under both EncodePWith and EncodePTile. It is exact — integer
// arithmetic on packed colours picks the same reference block, and reports
// the same distance, as the float definition written out in
// TestMatchBlockAgainstEqu2 (DESIGN.md §9 "Block-match kernel" has the
// argument).

import (
	"math"

	"repro/internal/geom"
)

// PackColor is the colour-plane word the matcher and EncodePTile's planes
// hold: R | G<<8 | B<<16, top byte zero.
func PackColor(c geom.Color) uint32 {
	return uint32(c.R) | uint32(c.G)<<8 | uint32(c.B)<<16
}

// packColors packs a frame's colour column into dst (regrown as needed).
func packColors(dst []uint32, vs []geom.Voxel) []uint32 {
	dst = grow(dst, len(vs))
	for i := range vs {
		dst[i] = PackColor(vs[i].C)
	}
	return dst
}

// dist2 is geom.Color.Dist2 on packed colours.
func dist2(a, b uint32) int {
	dr := int(a&0xff) - int(b&0xff)
	dg := int(a>>8&0xff) - int(b>>8&0xff)
	db := int(a>>16) - int(b>>16)
	return dr*dr + dg*dg + db*db
}

// pairStep walks pairIndex(i, kp, ki) for i = 0, 1, 2, … with an add and a
// compare per point in place of pairIndex's division: the quotient advances
// by ki/kp per step and the remainders carry into it.
type pairStep struct{ idx, rem, q, r, kp int }

func newPairStep(kp, ki int) pairStep {
	return pairStep{q: ki / kp, r: ki % kp, kp: kp}
}

// next returns the pair index of the current point and steps to the next.
func (s *pairStep) next() int {
	i := s.idx
	s.idx += s.q
	if s.rem += s.r; s.rem >= s.kp {
		s.rem -= s.kp
		s.idx++
	}
	return i
}

// matcher is one P-frame's block-match input: both frames' packed colour
// planes and their global segment grids.
type matcher struct {
	ip, pp           []uint32
	iBounds, pBounds []int
	candidates       int
}

// match returns P-block j's reference — the candidate I-block minimising
// (block distance, |c − center|, c) over the window — and the winner's
// distance as the integer block sum Σ dist2 over the paired points. All
// candidates of one P-block are normalised by the same kp, so ordering the
// sums orders the Equ. 2 distances sum/kp. Ties go to the window centre
// because the co-located block is the most likely true correspondence and
// its pointer is the cheapest to code.
func (m *matcher) match(j int) (ref, sum int) {
	nIBlocks := len(m.iBounds) - 1
	// Candidate window centred on the corresponding I index (Morton order
	// aligns similar body regions across frames).
	center := j * nIBlocks / (len(m.pBounds) - 1)
	lo := max(center-m.candidates/2, 0)
	hi := lo + m.candidates
	if hi > nIBlocks {
		hi = nIBlocks
		lo = max(hi-m.candidates, 0)
	}
	pb := m.pp[m.pBounds[j]:m.pBounds[j+1]]
	if i0 := m.iBounds[lo]; len(pb) == 1 && m.iBounds[hi]-i0 == hi-lo {
		// One point against a run of one-point blocks: the window is a
		// contiguous slice of the reference plane.
		k, d := matchPoint(pb[0], m.ip[i0:i0+hi-lo], center-lo)
		return lo + k, d
	}
	// Centre out — center, center−1, center+1, center−2, … — so that
	// candidates arrive in tie-break order (a later one wins only by a
	// strictly smaller sum) and the likeliest match comes first, which lets
	// blockSum abandon most of the rest after a few points.
	ref, sum = center, math.MaxInt
	for n, last := 0, 2*max(center-lo, hi-1-center); n <= last && sum > 0; n++ {
		c := center + n/2
		if n&1 == 1 {
			c = center - (n+1)/2
		}
		if c < lo || c >= hi {
			continue
		}
		if s := blockSum(pb, m.ip[m.iBounds[c]:m.iBounds[c+1]], sum); s < sum {
			ref, sum = c, s
		}
	}
	return ref, sum
}

// blockSum returns the distance sum Σ dist2 of P-block pb against I-block ib
// over the pairIndex pairing, or some value ≥ limit as soon as the running
// sum gets there.
func blockSum(pb, ib []uint32, limit int) int {
	sum := 0
	if len(ib) == len(pb) { // pairIndex is the identity
		for i, p := range pb {
			if sum += dist2(p, ib[i]); sum >= limit {
				break
			}
		}
		return sum
	}
	st := newPairStep(len(pb), len(ib))
	for _, p := range pb {
		if sum += dist2(p, ib[st.next()]); sum >= limit {
			break
		}
	}
	return sum
}

// matchPoint scans a window of single-point candidates for the one nearest
// to colour p, ties going to the index nearest to center, then to the lower
// index. Each half of the window folds into one branch-free minimum over
// keys dist2<<32 | distance-from-center (dist2 < 2^18, and no window holds
// 2^32 blocks).
func matchPoint(p uint32, win []uint32, center int) (idx, d int) {
	right := ^uint64(0) // center and above
	for i, w := range win[center:] {
		right = min(right, uint64(dist2(p, w))<<32|uint64(i))
	}
	left := ^uint64(0) // below center
	for i, w := range win[:center] {
		left = min(left, uint64(dist2(p, w))<<32|uint64(center-i))
	}
	if left <= right { // equal keys: the lower index wins
		return center - int(uint32(left)), int(left >> 32)
	}
	return center + int(uint32(right)), int(right >> 32)
}
