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
// The scan is one exact integer kernel (match.go) under both encoders,
// EncodePWith and the tiled EncodePTile: colours are packed into uint32
// planes once per frame, block distances are compared as integer sums —
// which picks the same block and yields the same Equ. 2 value as the float
// definition — and the inner loop is chosen from the block shapes at hand
// (single-point blocks, equal-size blocks, unequal blocks walked by a
// division-free pairing stepper that the delta coder and the decoder
// share). DESIGN.md §9 "Block-match kernel" has the argument.
//
// There is one decoder (decode.go): a pure body over a window of the
// frame's P-blocks that reads the stream through attr.Cursor and writes
// colours into the caller's window, under the untiled stream's framing
// (EncodePWith: every block) and the tile stream's (EncodePTile: the frame's
// global counts plus the tile's window). The point count — and a tile's
// position — is the caller's, taken from the decoded geometry; a stream
// that claims another is refused.
package interframe

import (
	"bytes"
	"errors"
	"sync"

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

// EncodeScratch is the inter-frame encoder's reusable arena: the packed
// colour planes, segment bounds, block-match state, the reuse bitmap and the
// per-block delta payload buffers. Buffers grow to the largest frame encoded
// and are then reused, so steady-state P-frame encoding allocates only the
// escaping payload. A scratch must not be shared by concurrent encodes.
type EncodeScratch struct {
	buf      bytes.Buffer
	iPack    []uint32
	pPack    []uint32
	pBounds  []int
	iBounds  []int
	bestIdx  []int32
	bestDiff []float64
	reuse    []bool
	bitmap   []byte
	streams  [][]byte
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// EncodeP compresses the attributes of a P-frame against a reference
// I-frame with a fresh scratch. Hot paths should hold an EncodeScratch and
// call EncodePWith.
func EncodeP(dev *edgesim.Device, iFrame, pFrame []geom.Voxel, p Params) ([]byte, Stats, error) {
	return EncodePWith(dev, iFrame, pFrame, p, new(EncodeScratch))
}

// EncodePWith compresses the attributes of a P-frame against a reference
// I-frame, reusing the scratch arena. Both frames must be Morton-sorted,
// deduplicated voxel slices (the geometry pipeline's output order). The
// P-frame's geometry is coded separately by the intra geometry pipeline.
func EncodePWith(dev *edgesim.Device, iFrame, pFrame []geom.Voxel, p Params, sc *EncodeScratch) ([]byte, Stats, error) {
	p = p.normalized()
	nP, nI := len(pFrame), len(iFrame)
	buf := &sc.buf
	buf.Reset()
	writeUvarint(buf, uint64(nP))
	writeUvarint(buf, uint64(p.Segments))
	writeUvarint(buf, uint64(p.QStep))
	if nP == 0 {
		return append([]byte(nil), buf.Bytes()...), Stats{}, nil
	}
	if nI == 0 {
		return nil, Stats{}, errors.New("interframe: empty reference frame")
	}
	sc.pBounds = attr.SegmentBoundsIn(sc.pBounds, nP, p.Segments)
	sc.iBounds = attr.SegmentBoundsIn(sc.iBounds, nI, p.Segments)
	pBounds, iBounds := sc.pBounds, sc.iBounds
	nBlocks := len(pBounds) - 1
	nIBlocks := len(iBounds) - 1

	// Block match: for each P-block, scan the candidate window. The planes
	// are packed afresh every frame — the caller's reference buffers
	// ping-pong, so a slice's identity says nothing about its contents.
	sc.iPack = packColors(sc.iPack, iFrame)
	sc.pPack = packColors(sc.pPack, pFrame)
	m := matcher{ip: sc.iPack, pp: sc.pPack, iBounds: iBounds, pBounds: pBounds, candidates: p.Candidates}
	sc.bestIdx = grow(sc.bestIdx, nBlocks)
	sc.bestDiff = grow(sc.bestDiff, nBlocks)
	bestIdx, bestDiff := sc.bestIdx, sc.bestDiff
	pairItems := nP * p.Candidates
	// Diff_Squared and Squared_Sum run on the fixed-function unit when one
	// is configured (the paper's Sec. VI-D future-work projection); on the
	// plain Xavier model AccelKernel falls back to GPU accounting. The model
	// charges the full candidate scan whatever the matcher skips.
	dev.AccelKernel("Diff_Squared", nBlocks, edgesim.Cost{
		OpsPerItem:   costDiffSquared.OpsPerItem * float64(pairItems) / float64(nBlocks),
		BytesPerItem: costDiffSquared.BytesPerItem * float64(pairItems) / float64(nBlocks),
	}, func(b0, b1 int) {
		for j := b0; j < b1; j++ {
			ref, sum := m.match(j)
			bestIdx[j] = int32(ref)
			bestDiff[j] = float64(sum) / float64(pBounds[j+1]-pBounds[j])
		}
	})
	// The per-pair reduction is a separate kernel on the GPU (Fig. 9
	// names it Squared_Sum); the work happened inside the scan above, so
	// it is accounted without a second execution.
	dev.AccelNoop("Squared_Sum", pairItems, costSquaredSum)

	// Reuse decision per block.
	sc.reuse = grow(sc.reuse, nBlocks)
	reuse := sc.reuse
	st := Stats{Blocks: nBlocks}
	dev.GPUKernelIdx("ReuseDecide", nBlocks, costReuseDecide, func(j int) {
		reuse[j] = bestDiff[j] <= p.Threshold
	})
	for _, r := range reuse {
		if r {
			st.DirectReuse++
		} else {
			st.DeltaBlocks++
		}
	}

	// Emit: reuse bitmap, then per block the reference pointer (offset from
	// the window centre; the paper notes few bits suffice for 100
	// candidates), then delta payloads for non-reuse blocks.
	sc.bitmap = grow(sc.bitmap, (nBlocks+7)/8)
	bitmap := sc.bitmap
	clear(bitmap)
	for j, r := range reuse {
		if r {
			bitmap[j/8] |= 1 << uint(j%8)
		}
	}
	buf.Write(bitmap)
	for j := 0; j < nBlocks; j++ {
		center := j * nIBlocks / nBlocks
		writeVarint(buf, int64(bestIdx[j])-int64(center))
	}
	dev.GPUNoop("Reuse_Pointer", nBlocks, edgesim.Cost{OpsPerItem: 20, BytesPerItem: 2})

	// Address generation + delta quantization + packing for delta blocks.
	// Delta payloads append into per-block scratch buffers (reused across
	// frames) so parallel workers write independently with no per-block
	// allocation in the steady state.
	dev.GPUNoop("AddressGen", nP, costAddressGen)
	if cap(sc.streams) < nBlocks {
		sc.streams = make([][]byte, nBlocks)
	}
	deltaStreams := sc.streams[:nBlocks]
	dev.GPUKernel("Delta_Quantize", nBlocks, edgesim.Cost{
		OpsPerItem:   (costDeltaQuant.OpsPerItem + costPack.OpsPerItem) * float64(nP) / float64(nBlocks),
		BytesPerItem: (costDeltaQuant.BytesPerItem + costPack.BytesPerItem) * float64(nP) / float64(nBlocks),
	}, func(b0, b1 int) {
		ds := deltaPool.Get().(*deltaScratch)
		for j := b0; j < b1; j++ {
			if reuse[j] {
				deltaStreams[j] = deltaStreams[j][:0]
				continue
			}
			deltaStreams[j] = encodeDeltaBlock(deltaStreams[j][:0],
				m.ip[iBounds[bestIdx[j]]:iBounds[bestIdx[j]+1]],
				m.pp[pBounds[j]:pBounds[j+1]],
				int32(p.QStep), ds)
		}
		deltaPool.Put(ds)
	})
	for _, s := range deltaStreams {
		buf.Write(s)
	}
	return append([]byte(nil), buf.Bytes()...), st, nil
}

// deltaScratch holds one worker's per-block delta/residual buffers.
type deltaScratch struct {
	deltas, resid, med []int32
}

var deltaPool = sync.Pool{New: func() any { return new(deltaScratch) }}

// encodeDeltaBlock appends one block's per-point, per-channel deltas versus
// its reference, as Base (median delta) + quantized residuals — the intra
// Base+Deltas technique applied to the delta values (Sec. V-A2 "Reuse").
// ib and pb are the two blocks' packed colours.
func encodeDeltaBlock(out []byte, ib, pb []uint32, q int32, ds *deltaScratch) []byte {
	kp := len(pb)
	ds.deltas, ds.resid = grow(ds.deltas, 3*kp), grow(ds.resid, kp)
	deltas, resid := ds.deltas, ds.resid
	st := newPairStep(kp, len(ib))
	for i, pc := range pb {
		ic := ib[st.next()]
		for ch := 0; ch < 3; ch++ {
			deltas[ch*kp+i] = int32(pc>>(8*ch)&0xff) - int32(ic>>(8*ch)&0xff)
		}
	}
	for ch := 0; ch < 3; ch++ {
		chDeltas := deltas[ch*kp : (ch+1)*kp]
		base := medianI32(chDeltas, &ds.med)
		out = appendVarint(out, int64(base))
		for i, d := range chDeltas {
			resid[i] = quantizeI32(d-base, q)
		}
		out = appendResiduals(out, resid)
	}
	return out
}
