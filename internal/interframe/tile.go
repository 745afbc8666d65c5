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
// against the untiled codec — the decoder runs one body under both framings
// (decode.go).
//
// Everything here is deliberately serial: tiles are the unit of parallelism,
// so the per-tile body must be a pool LEAF with no nested kernel dispatch.
// The reference frame is shared read-only across concurrent tiles.

import (
	"bytes"
	"errors"
	"fmt"
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
