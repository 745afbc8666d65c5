package interframe

// Serial per-tile P-frame attribute coding for the tiled encode path.
//
// A P-tile covers a whole number of the frame's macro blocks (a contiguous
// global block window), and every per-block decision — candidate window
// placement, best-match scan with its tie-break, reuse threshold, delta
// payload — depends only on the block's GLOBAL index, the global segment
// grids and the frames' voxel data. Coding a tile's block window with the
// global grids therefore reproduces exactly the per-block bytes of the
// untiled EncodePWith; only the framing differs (each tile carries its own
// header, bitmap and pointer column), so tiled P streams are decode-exact
// against the untiled codec.
//
// Everything here is deliberately serial: tiles are the unit of parallelism,
// so the per-tile body must be a pool LEAF with no nested kernel dispatch.
// The reference frame is shared read-only across concurrent tiles.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/attr"
	"repro/internal/geom"
)

// PTileScratch is the reusable arena for serial P-tile encodes. It must not
// be shared by concurrent tiles — the tiled encoder holds one per worker
// slot.
type PTileScratch struct {
	buf     bytes.Buffer
	bitmap  []byte
	refs    []int32
	payload []byte
	delta   deltaScratch
}

// EncodePTile encodes the global P-block window [bLo, bLo+bCount) as a
// self-contained tile stream. iPack and pPack are the colour columns of the
// FULL Morton-sorted reference and P-frame, one PackColor word per point
// — packed once per frame by the caller and shared
// read-only by its tiles (a tile reads only its own P range but may match
// any I-block in its candidate windows); pBounds and iBounds are the
// frames' global SegmentBounds grids for p.Segments. The emitted per-block
// decisions and delta payloads are byte-identical to the untiled encoder's
// for the same window.
func EncodePTile(iPack, pPack []uint32, p Params, pBounds, iBounds []int, bLo, bCount int, sc *PTileScratch) ([]byte, Stats, error) {
	p = p.normalized()
	nBlocks := len(pBounds) - 1
	nIBlocks := len(iBounds) - 1
	bHi := bLo + bCount
	if bLo < 0 || bCount < 1 || bHi > nBlocks {
		return nil, Stats{}, fmt.Errorf("interframe: tile block window [%d,%d) outside %d blocks", bLo, bHi, nBlocks)
	}
	if len(iPack) == 0 {
		return nil, Stats{}, errors.New("interframe: empty reference frame")
	}
	buf := &sc.buf
	buf.Reset()
	writeUvarint(buf, uint64(len(pPack)))
	writeUvarint(buf, uint64(p.Segments))
	writeUvarint(buf, uint64(p.QStep))
	writeUvarint(buf, uint64(bLo))
	writeUvarint(buf, uint64(bCount))

	sc.bitmap = grow(sc.bitmap, (bCount+7)/8)
	bitmap := sc.bitmap
	clear(bitmap)
	st := Stats{Blocks: bCount}

	// Pass 1: match + reuse decision, filling the bitmap (it precedes the
	// pointer column in the stream, mirroring the untiled layout).
	m := matcher{ip: iPack, pp: pPack, iBounds: iBounds, pBounds: pBounds, candidates: p.Candidates}
	sc.refs = grow(sc.refs, bCount)
	refs := sc.refs
	for k := range refs {
		j := bLo + k
		ref, sum := m.match(j)
		refs[k] = int32(ref)
		if float64(sum)/float64(pBounds[j+1]-pBounds[j]) <= p.Threshold {
			bitmap[k/8] |= 1 << uint(k%8)
			st.DirectReuse++
		} else {
			st.DeltaBlocks++
		}
	}
	buf.Write(bitmap)
	for k, ref := range refs {
		center := (bLo + k) * nIBlocks / nBlocks
		writeVarint(buf, int64(ref)-int64(center))
	}

	// Pass 2: delta payloads for non-reuse blocks, in block order.
	for k, ref := range refs {
		if bitmap[k/8]>>uint(k%8)&1 == 1 {
			continue
		}
		j := bLo + k
		sc.payload = encodeDeltaBlock(sc.payload[:0],
			iPack[iBounds[ref]:iBounds[ref+1]],
			pPack[pBounds[j]:pBounds[j+1]],
			int32(p.QStep), &sc.delta)
		buf.Write(sc.payload)
	}
	return append([]byte(nil), buf.Bytes()...), st, nil
}

// DecodePTile reconstructs one tile's slice of the P-frame attribute column
// from a stream produced by EncodePTile, on the calling goroutine with no
// device kernels. iFrame is the FULL decoded reference frame. The returned
// colours are exactly the untiled decoder's output restricted to the tile's
// point range [pointLo, pointHi).
func DecodePTile(data []byte, iFrame []geom.Voxel) (colors []geom.Color, pointLo, pointHi int, err error) {
	r := bytes.NewReader(data)
	bad := func() ([]geom.Color, int, int, error) { return nil, 0, 0, ErrBadStream }
	nP64, err := readUvarintR(r)
	if err != nil {
		return bad()
	}
	segs64, err := readUvarintR(r)
	if err != nil {
		return bad()
	}
	q64, err := readUvarintR(r)
	if err != nil {
		return bad()
	}
	bLo64, err := readUvarintR(r)
	if err != nil {
		return bad()
	}
	bCount64, err := readUvarintR(r)
	if err != nil {
		return bad()
	}
	const maxReasonable = 1 << 30
	if nP64 == 0 || nP64 > maxReasonable || segs64 > maxReasonable || q64 > 1<<20 {
		return bad()
	}
	nP, segs, q := int(nP64), int(segs64), int32(q64)
	// The P grid is attr.SegmentBounds(nP, segs), evaluated only at the
	// tile's own blocks: a header's counts must not size an allocation.
	nBlocks := min(nP, max(segs, 1))
	pBound := func(j int) int { return j * nP / nBlocks }
	if bCount64 == 0 || bCount64 > uint64(nBlocks) || bLo64 > uint64(nBlocks)-bCount64 {
		return bad()
	}
	bLo, bCount := int(bLo64), int(bCount64)
	if !blocksFit(bCount, r.Len()) {
		return bad()
	}
	nI := len(iFrame)
	if nI == 0 {
		return nil, 0, 0, errors.New("interframe: empty reference frame")
	}
	iBounds := attr.SegmentBounds(nI, segs)
	nIBlocks := len(iBounds) - 1

	bitmap := make([]byte, (bCount+7)/8)
	if _, err := io_ReadFull(r, bitmap); err != nil {
		return bad()
	}
	refs := make([]int32, bCount)
	for j := 0; j < bCount; j++ {
		off, err := readVarint(r)
		if err != nil {
			return bad()
		}
		center := (bLo + j) * nIBlocks / nBlocks
		ref := int64(center) + off
		if ref < 0 || ref >= int64(nIBlocks) {
			return nil, 0, 0, fmt.Errorf("interframe: reference block %d out of range", ref)
		}
		refs[j] = int32(ref)
	}

	pointLo, pointHi = pBound(bLo), pBound(bLo+bCount)
	colors = make([]geom.Color, pointHi-pointLo)
	for j := 0; j < bCount; j++ {
		block := colors[pBound(bLo+j)-pointLo : pBound(bLo+j+1)-pointLo]
		iv := iFrame[iBounds[refs[j]]:iBounds[refs[j]+1]]
		if bitmap[j/8]>>uint(j%8)&1 == 1 {
			reconstructBlock(block, iv, nil, q)
			continue
		}
		var db deltaBlock
		for ch := 0; ch < 3; ch++ {
			base, err := readVarint(r)
			if err != nil {
				return bad()
			}
			db.bases[ch] = int32(base)
			rs, err := unpackResiduals(r, len(block))
			if err != nil {
				return nil, 0, 0, err
			}
			db.resid[ch] = rs
		}
		reconstructBlock(block, iv, &db, q)
	}
	return colors, pointLo, pointHi, nil
}

// readUvarintR is binary.ReadUvarint with the package's error convention.
func readUvarintR(r *bytes.Reader) (uint64, error) {
	v, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, ErrBadStream
	}
	return v, nil
}
