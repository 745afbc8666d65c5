// Package interframe implements the paper's CONTRIBUTION inter-frame
// attribute compression (Sec. V): both the I-frame and the P-frame are
// Morton-sorted (reusing the geometry pipeline's codes) and segmented into
// macro blocks; each P-block is matched against a small window of candidate
// I-blocks by the 2-norm attribute distance of Equ. 2; sufficiently-similar
// blocks are stored as a mere POINTER to their reference block ("direct
// reuse"), the rest store per-point deltas against the best reference,
// compressed with the intra Base+Deltas technique.
//
// Because the points are sorted, the candidate window is a contiguous run
// of I-block indices around the P-block's own index — this is the paper's
// "search space minimization" (Sec. VI-C) that replaces CWIPC's full
// I-MB-tree traversal, and no ICP runs for matched blocks (a pointer
// suffices).
//
// The scan is one exact integer kernel (match.go): colours are packed into
// uint32 planes once per frame, block distances are compared as integer sums
// — which picks the same block and yields the same Equ. 2 value as the float
// definition — and the inner loop is chosen from the block shapes at hand
// (single-point blocks, equal-size blocks, unequal blocks walked by a
// division-free pairing stepper that the delta coder and the decoder
// share). DESIGN.md §9 "Block-match kernel" has the argument.
//
// There is one encoder: a pure, device-free body over a window of the
// frame's P-blocks (EncodeWindow) that fills the window's range of the
// frame-wide reference-index and reuse columns and the window's delta
// payload bytes, into a Columns; and two framings of a Columns, the untiled
// stream over every window (AppendFrame, which books the paper's kernels
// beside it) and the tile stream of one window (EncodePTile, tile.go).
// EncodeP and EncodePWith are the one-window front ends. Every per-block
// value depends only on the block's global index, so a frame coded in any
// number of windows is the same untiled stream.
//
// There is one decoder (decode.go): a pure body over a window of the
// frame's P-blocks that reads the stream through attr.Cursor and writes
// colours into the caller's window, under the untiled stream's framing
// (every block) and the tile stream's (the frame's global counts plus the
// tile's window). The point count — and a tile's position — is the
// caller's, taken from the decoded geometry; a stream that claims another is
// refused.
package interframe

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/attr"
	"repro/internal/edgesim"
	"repro/internal/geom"
)

// Params configures the inter-frame codec.
type Params struct {
	// Segments is the number of macro blocks per frame (paper: 50000).
	Segments int
	// Candidates is the size of the candidate window per P-block
	// (paper: 100).
	Candidates int
	// Threshold is the direct-reuse acceptance bound on the Equ. 2
	// 2-norm distance, normalized per point (mean squared RGB distance of
	// the block). The paper uses block-sum thresholds of 300 (V1) and 1200
	// (V2) at ~16 points/block; we normalize so the knob is independent of
	// segment count and frame scale, and pick defaults that land the same
	// reuse fractions on the synthetic dataset (whose per-frame sensor
	// noise sets the distance floor).
	Threshold float64
	// QStep quantizes the residuals of post-intra-encoded delta blocks.
	QStep int
}

// DefaultParamsV1 mirrors the paper's quality-oriented Intra-Inter-V1.
func DefaultParamsV1() Params {
	return Params{Segments: 50000, Candidates: 100, Threshold: 45, QStep: 4}
}

// DefaultParamsV2 mirrors the compression-oriented Intra-Inter-V2.
func DefaultParamsV2() Params {
	p := DefaultParamsV1()
	p.Threshold = 90
	return p
}

func (p Params) normalized() Params {
	if p.Segments < 1 {
		p.Segments = 1
	}
	if p.Candidates < 1 {
		p.Candidates = 1
	}
	if p.QStep < 1 {
		p.QStep = 1
	}
	return p
}

// Stats summarizes one encoded P-frame (feeds the Fig. 10b sensitivity
// study: % direct-reuse blocks vs quality vs ratio).
type Stats struct {
	Blocks      int
	DirectReuse int
	DeltaBlocks int
}

// ReuseFraction returns the fraction of blocks stored as pointers.
func (s Stats) ReuseFraction() float64 {
	if s.Blocks == 0 {
		return 0
	}
	return float64(s.DirectReuse) / float64(s.Blocks)
}

// Calibrated kernel costs. Proportions reproduce the Fig. 9 energy
// breakdown (Diff_Squared ~35%, Squared_Sum ~16%, AddressGen ~32% of the
// inter-frame attribute energy).
var (
	costDiffSquared = edgesim.Cost{OpsPerItem: 11, BytesPerItem: 6}    // per candidate pair-point
	costSquaredSum  = edgesim.Cost{OpsPerItem: 5, BytesPerItem: 1}     // per candidate pair-point
	costReuseDecide = edgesim.Cost{OpsPerItem: 85, BytesPerItem: 8}    // per block
	costAddressGen  = edgesim.Cost{OpsPerItem: 1000, BytesPerItem: 12} // per P point
	costDeltaQuant  = edgesim.Cost{OpsPerItem: 85, BytesPerItem: 8}    // per P point
	costPack        = edgesim.Cost{OpsPerItem: 110, BytesPerItem: 3}   // per P point
)

// ErrBadStream reports a malformed inter-frame stream.
var ErrBadStream = errors.New("interframe: malformed stream")

// pairIndex maps the i-th point of a Kp-point P-block onto a point of a
// Ki-point I-block (deterministic on both sides of the channel). It is the
// definition; the coders walk it with a pairStep.
func pairIndex(i, kp, ki int) int {
	if ki == 0 {
		return -1
	}
	return i * ki / kp
}

// Columns is a P-frame's attributes between the encode body and a framing:
// the frame-wide reference-index and reuse columns — one entry per P-block —
// and, per window the body ran over, the delta payloads of that window's
// blocks. Windows write disjoint ranges of the two columns and their own
// entry, so the bodies of one frame may run concurrently; Reset and the
// framings must not.
type Columns struct {
	p                Params
	pBounds, iBounds []int // the two frames' SegmentBoundsIn grids, the caller's
	refs             []int32
	reuse            []bool
	wins             []window
}

// window is one body call's output: the block window it covered and the
// delta payloads of its non-reuse blocks, in block order.
type window struct {
	bLo, bHi int
	payload  []byte
}

// Reset starts a P-frame of len(pBounds)-1 blocks against a reference of
// len(iBounds)-1 — the two frames' SegmentBoundsIn grids for p.Segments, which
// must stay untouched until the frame is framed — coded by the given number
// of windows.
func (c *Columns) Reset(pBounds, iBounds []int, p Params, windows int) {
	c.p, c.pBounds, c.iBounds = p.normalized(), pBounds, iBounds
	c.refs = grow(c.refs, len(pBounds)-1)
	c.reuse = grow(c.reuse, len(pBounds)-1)
	if c.wins = c.wins[:cap(c.wins)]; len(c.wins) < windows {
		c.wins = append(c.wins, make([]window, windows-len(c.wins))...)
	}
	c.wins = c.wins[:windows]
}

// points returns the P-frame's point count.
func (c *Columns) points() int { return c.pBounds[len(c.pBounds)-1] }

// EncodeScratch is one unit's working memory for the encode body — one delta
// block's columns — plus what the one-window front end EncodePWith holds: both
// packed colour planes, the two grids and the Columns it frames from. Buffers
// grow to the largest frame encoded and are then reused. A scratch must not
// be shared by concurrent encodes.
type EncodeScratch struct {
	deltas, resid, med []int32
	iPack, pPack       []uint32
	pGrid, iGrid       []int
	cols               Columns
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// EncodeWindow is the one encode body: block match, reuse decision and delta
// payloads over the P-block window [bLo, bLo+bCount) of c's grids, as window
// w of the frame. iPack and pPack are the colour columns of the FULL
// Morton-sorted reference and P-frame, one PackColor word per point, shared
// read-only by the frame's windows (a window reads only its own P range but
// may match any I-block in its candidate windows). It fills the window's
// range of the reference-index and reuse columns and window w's payload
// bytes, and returns the window's reuse statistics. Every per-block decision
// — candidate window placement, best match with its tie-break, reuse
// threshold, delta payload — depends only on the block's GLOBAL index, the
// grids and the colours, so the values do not depend on how a frame is cut
// into windows. An empty window is valid and codes nothing.
func (sc *EncodeScratch) EncodeWindow(c *Columns, w int, iPack, pPack []uint32, bLo, bCount int) (Stats, error) {
	bHi := bLo + bCount
	if bLo < 0 || bCount < 0 || bHi > len(c.pBounds)-1 {
		return Stats{}, fmt.Errorf("interframe: block window [%d,%d) outside %d blocks", bLo, bHi, len(c.pBounds)-1)
	}
	if len(iPack) == 0 && bCount > 0 {
		return Stats{}, errors.New("interframe: empty reference frame")
	}
	m := matcher{ip: iPack, pp: pPack, iBounds: c.iBounds, pBounds: c.pBounds, candidates: c.p.Candidates}
	st := Stats{Blocks: bCount}
	out := c.wins[w].payload[:0]
	for j := bLo; j < bHi; j++ {
		pb := pPack[c.pBounds[j]:c.pBounds[j+1]]
		ref, sum := m.match(j)
		c.refs[j] = int32(ref)
		if c.reuse[j] = float64(sum)/float64(len(pb)) <= c.p.Threshold; c.reuse[j] {
			st.DirectReuse++
			continue
		}
		st.DeltaBlocks++
		out = sc.appendDeltaBlock(out, iPack[c.iBounds[ref]:c.iBounds[ref+1]], pb, int32(c.p.QStep))
	}
	c.wins[w] = window{bLo, bHi, out}
	return st, nil
}

// appendDeltaBlock appends one block's per-point, per-channel deltas versus
// its reference, as Base (median delta) + quantized residuals — the intra
// Base+Deltas technique applied to the delta values (Sec. V-A2 "Reuse").
// ib and pb are the two blocks' packed colours.
func (sc *EncodeScratch) appendDeltaBlock(out []byte, ib, pb []uint32, q int32) []byte {
	kp := len(pb)
	sc.deltas, sc.resid = grow(sc.deltas, 3*kp), grow(sc.resid, kp)
	deltas, resid := sc.deltas, sc.resid
	st := newPairStep(kp, len(ib))
	for i, pc := range pb {
		ic := ib[st.next()]
		for ch := 0; ch < 3; ch++ {
			deltas[ch*kp+i] = int32(pc>>(8*ch)&0xff) - int32(ic>>(8*ch)&0xff)
		}
	}
	for ch := 0; ch < 3; ch++ {
		chDeltas := deltas[ch*kp : (ch+1)*kp]
		base := attr.Median(chDeltas, &sc.med)
		out = binary.AppendVarint(out, int64(base))
		for i, d := range chDeltas {
			resid[i] = attr.Quantize(d-base, q)
		}
		out = attr.AppendPacked(out, resid)
	}
	return out
}

// appendHeader appends the fields both framings open with: the P-frame's
// point count, the segment parameter and the quantization step.
func (c *Columns) appendHeader(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(c.points()))
	dst = binary.AppendUvarint(dst, uint64(c.p.Segments))
	return binary.AppendUvarint(dst, uint64(c.p.QStep))
}

// appendBlocks appends blocks [bLo, bHi): their reuse bitmap, then per block
// the reference pointer as an offset from its candidate window's centre (the
// paper notes few bits suffice for 100 candidates), then the delta payloads
// of windows [w0, w1), which must cover exactly those blocks in order.
func (c *Columns) appendBlocks(dst []byte, bLo, bHi, w0, w1 int) []byte {
	at, nb := len(dst), (bHi-bLo+7)/8
	dst = slices.Grow(dst, nb)[:at+nb]
	clear(dst[at:])
	for k, r := range c.reuse[bLo:bHi] {
		if r {
			dst[at+k/8] |= 1 << uint(k%8)
		}
	}
	nBlocks, nIBlocks := len(c.pBounds)-1, len(c.iBounds)-1
	for j := bLo; j < bHi; j++ {
		dst = binary.AppendVarint(dst, int64(c.refs[j])-int64(j*nIBlocks/nBlocks))
	}
	for _, win := range c.wins[w0:w1] {
		dst = append(dst, win.payload...)
	}
	return dst
}

// AppendFrame is the untiled framing: it appends the whole P-frame as one
// stream — the header, one bitmap and one pointer column over every block,
// then every window's payloads in window order, which is block order. A
// block's pointer and payload do not depend on the window that coded it, so
// the stream is the same for any cut. The paper's encode kernels are booked
// on dev beside it, from the frame's counts (the work itself happened in the
// bodies): Diff_Squared and Squared_Sum on the fixed-function unit when one
// is configured (the paper's Sec. VI-D future-work projection) and on the GPU
// otherwise, charged the full candidate scan whatever the matcher skipped;
// then the reuse decision, the pointers, address generation and the delta
// quantize-and-pack.
func (c *Columns) AppendFrame(dev *edgesim.Device, dst []byte) []byte {
	dst = c.appendHeader(dst)
	nP, nBlocks := c.points(), len(c.pBounds)-1
	if nP == 0 {
		return dst
	}
	perBlock := func(k edgesim.Cost, items int) edgesim.Cost {
		return edgesim.Cost{
			OpsPerItem:   k.OpsPerItem * float64(items) / float64(nBlocks),
			BytesPerItem: k.BytesPerItem * float64(items) / float64(nBlocks),
		}
	}
	pairItems := nP * c.p.Candidates
	dev.AccelNoop("Diff_Squared", nBlocks, perBlock(costDiffSquared, pairItems))
	dev.AccelNoop("Squared_Sum", pairItems, costSquaredSum)
	dev.GPUNoop("ReuseDecide", nBlocks, costReuseDecide)
	dev.GPUNoop("Reuse_Pointer", nBlocks, edgesim.Cost{OpsPerItem: 20, BytesPerItem: 2})
	dev.GPUNoop("AddressGen", nP, costAddressGen)
	dev.GPUNoop("Delta_Quantize", nBlocks, perBlock(edgesim.Cost{
		OpsPerItem:   costDeltaQuant.OpsPerItem + costPack.OpsPerItem,
		BytesPerItem: costDeltaQuant.BytesPerItem + costPack.BytesPerItem,
	}, nP))
	return c.appendBlocks(dst, 0, nBlocks, 0, len(c.wins))
}

// EncodeP compresses the attributes of a P-frame against a reference
// I-frame with a fresh scratch. Hot paths should hold an EncodeScratch and
// call EncodePWith.
func EncodeP(dev *edgesim.Device, iFrame, pFrame []geom.Voxel, p Params) ([]byte, Stats, error) {
	return EncodePWith(dev, iFrame, pFrame, p, new(EncodeScratch))
}

// EncodePWith compresses the attributes of a P-frame against a reference
// I-frame as one window on the calling goroutine, reusing the scratch arena,
// and returns a freshly allocated stream. Both frames must be Morton-sorted,
// deduplicated voxel slices (the geometry pipeline's output order). The
// P-frame's geometry is coded separately by the intra geometry pipeline.
func EncodePWith(dev *edgesim.Device, iFrame, pFrame []geom.Voxel, p Params, sc *EncodeScratch) ([]byte, Stats, error) {
	sc.pGrid = attr.SegmentBoundsIn(sc.pGrid, len(pFrame), p.Segments)
	sc.iGrid = attr.SegmentBoundsIn(sc.iGrid, len(iFrame), p.Segments)
	sc.cols.Reset(sc.pGrid, sc.iGrid, p, 1)
	sc.iPack = packColors(sc.iPack, iFrame)
	sc.pPack = packColors(sc.pPack, pFrame)
	st, err := sc.EncodeWindow(&sc.cols, 0, sc.iPack, sc.pPack, 0, len(sc.pGrid)-1)
	if err != nil {
		return nil, Stats{}, err
	}
	return sc.cols.AppendFrame(dev, nil), st, nil
}
