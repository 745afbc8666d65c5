package interframe

// The P-frame attribute decoder: one body, decodeWindow, over a window of
// the frame's P-blocks, under two header framings. The untiled stream
// (EncodePWith) covers every block; a tile stream (EncodePTile) records the
// frame's global counts plus its own block window, and every per-block
// value — candidate-window centre, reference pointer, delta payload —
// depends only on the block's global index, so the colours are the untiled
// ones and only the framing differs. The body is pure and device-free; the
// untiled framing books the paper's decode kernels beside it.
//
// Reuse blocks and zero-width delta blocks cost a stream nothing per point,
// so a stream cannot vouch for its own point count: the caller's destination
// window — whose length and position the codec takes from the decoded
// geometry — is the count, a header that says otherwise is refused before
// anything is read for it, and every slice cut from the payload checks what
// is left first.

import (
	"errors"
	"fmt"

	"repro/internal/attr"
	"repro/internal/edgesim"
	"repro/internal/geom"
)

// DecodeScratch is the P-frame decoder's reusable arena: the window's
// reference-pointer column and one delta block's channel columns. Buffers
// grow to the largest window decoded and are then reused. A scratch must not
// be shared by concurrent decodes.
type DecodeScratch struct {
	refs  []int32
	delta [3][]int32
}

// pstream is an opened P stream of either framing: the header's fields, the
// block window [bLo, bHi) of the frame's nBlocks blocks, and the cursor at
// the window's reuse bitmap.
type pstream struct {
	cur         attr.Cursor
	nP, nBlocks int
	segs        int
	bLo, bHi    int
	qstep       int32
}

// points returns the window's point range in the P-frame.
func (st *pstream) points() (lo, hi int) {
	if st.nP == 0 {
		return 0, 0
	}
	return st.bLo * st.nP / st.nBlocks, st.bHi * st.nP / st.nBlocks
}

// checkPoints refuses a stream whose window is not the point range
// [lo, lo+n) the caller's geometry puts it at.
func (st *pstream) checkPoints(lo, n int) error {
	if gotLo, gotHi := st.points(); gotLo != lo || gotHi != lo+n {
		return fmt.Errorf("%w: stream codes points [%d,%d), geometry has [%d,%d)", ErrBadStream, gotLo, gotHi, lo, lo+n)
	}
	return nil
}

// blocksFit reports whether a stream with avail bytes left can hold blocks
// P-blocks: each costs at least one bitmap bit and one pointer byte.
func blocksFit(blocks, avail int) bool {
	return (blocks+7)/8+blocks <= avail
}

// openP parses a P stream's header: the untiled one, and behind it the block
// window when tile is set. A frame of zero points has no blocks, and no
// tiles.
func openP(data []byte, tile bool) (st pstream, err error) {
	st.cur = attr.NewCursor(data)
	c := &st.cur
	nP, ok1 := c.Uvarint()
	segs, ok2 := c.Uvarint()
	qstep, ok3 := c.Uvarint()
	if !(ok1 && ok2 && ok3) {
		return st, ErrBadStream
	}
	var bLo, bCount uint64
	if tile {
		bLo, ok1 = c.Uvarint()
		bCount, ok2 = c.Uvarint()
		if !(ok1 && ok2) {
			return st, ErrBadStream
		}
	} else if nP == 0 {
		return st, nil
	}
	const maxReasonable = 1 << 30
	if nP == 0 || nP > maxReasonable || segs > maxReasonable || qstep > 1<<20 {
		return st, ErrBadStream
	}
	st.nP, st.segs, st.qstep = int(nP), int(segs), int32(qstep)
	st.nBlocks = min(st.nP, max(st.segs, 1))
	st.bHi = st.nBlocks
	if tile {
		nBlocks := uint64(st.nBlocks)
		if bCount == 0 || bCount > nBlocks || bLo > nBlocks-bCount {
			return st, ErrBadStream
		}
		st.bLo, st.bHi = int(bLo), int(bLo+bCount)
	}
	if !blocksFit(st.bHi-st.bLo, c.Len()) {
		return st, ErrBadStream
	}
	return st, nil
}

// decodeWindow is the one decode body: it reads the window's reuse bitmap,
// pointer column and delta payloads and writes the window's colours to dst,
// which must hold exactly the points of st.points(). ref is the decoded
// reference frame's colour column, whole: a block may point at any I-block
// of its candidate window.
func (s *DecodeScratch) decodeWindow(st *pstream, dst, ref []geom.Color) error {
	nI := len(ref)
	if nI == 0 {
		return errors.New("interframe: empty reference frame")
	}
	nIBlocks := min(nI, max(st.segs, 1))
	blocks := st.bHi - st.bLo
	c := &st.cur
	bitmap, ok := c.Take((blocks + 7) / 8)
	if !ok {
		return ErrBadStream
	}
	// Pointers are offsets from the candidate window's centre, the I-block
	// co-located with the P-block.
	s.refs = grow(s.refs, blocks)
	refs := s.refs
	center := attr.NewBoundStep(nIBlocks, st.nBlocks, st.bLo)
	for k := range refs {
		off, ok := c.Varint()
		if !ok {
			return ErrBadStream
		}
		r := int64(center.At()) + off
		center.Next()
		if r < 0 || r >= int64(nIBlocks) {
			return fmt.Errorf("interframe: reference block %d out of range", r)
		}
		refs[k] = int32(r)
	}
	bound := attr.NewBoundStep(st.nP, st.nBlocks, st.bLo)
	first := bound.At()
	for k, r := range refs {
		lo := bound.At() - first
		block := dst[lo : bound.Next()-first]
		// I-block r, which is point r when the reference has no more points
		// than blocks (two divisions saved per block where blocks are
		// shortest).
		iv := ref[r : r+1]
		if nIBlocks != nI {
			iv = ref[int(r)*nI/nIBlocks : (int(r)+1)*nI/nIBlocks]
		}
		if bitmap[k/8]>>uint(k%8)&1 == 1 {
			reuseBlock(block, iv)
		} else if err := s.decodeDelta(c, block, iv, st.qstep); err != nil {
			return err
		}
	}
	return nil
}

// reuseBlock fills a direct-reuse P-block: the paired reference colours,
// verbatim.
func reuseBlock(out, iv []geom.Color) {
	if len(out) == len(iv) { // pairIndex is the identity
		copy(out, iv)
		return
	}
	st := newPairStep(len(out), len(iv))
	for i := range out {
		out[i] = iv[st.next()]
	}
}

// decodeDelta reads one delta payload — per channel a base and the block's
// fixed-width quantized residuals — and fills the P-block with the paired
// reference colours plus the dequantized deltas.
func (s *DecodeScratch) decodeDelta(c *attr.Cursor, out, iv []geom.Color, q int32) error {
	for ch := range s.delta {
		base, ok := c.Varint()
		if !ok {
			return ErrBadStream
		}
		raw, w, ok := c.Packed(len(out))
		if !ok {
			return ErrBadStream
		}
		s.delta[ch] = grow(s.delta[ch], len(out))
		attr.Unpack(s.delta[ch], raw, w, int32(base), q)
	}
	d0, d1, d2 := s.delta[0], s.delta[1], s.delta[2]
	st := newPairStep(len(out), len(iv))
	for i := range out {
		out[i] = iv[st.next()].Add(int(d0[i]), int(d1[i]), int(d2[i]))
	}
	return nil
}

// frameColors copies a voxel column's colours out.
func frameColors(vs []geom.Voxel) []geom.Color {
	out := make([]geom.Color, len(vs))
	for i := range vs {
		out[i] = vs[i].C
	}
	return out
}

// DecodeP reconstructs a P-frame's attribute column from an EncodePWith
// stream, with a fresh scratch and trusting the stream's own point count.
// iFrame is the decoded (sorted) reference frame. Decoders that hold the
// frame's geometry use DecodeScratch.DecodeP.
func DecodeP(dev *edgesim.Device, data []byte, iFrame []geom.Voxel) ([]geom.Color, error) {
	st, err := openP(data, false)
	if err != nil || st.nP == 0 {
		return nil, err
	}
	out := make([]geom.Color, st.nP)
	if err := new(DecodeScratch).decodeFrame(dev, &st, out, frameColors(iFrame)); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeP reconstructs a P-frame's attribute column from an EncodePWith
// stream into dst, one colour per point in sorted order. len(dst) is the
// point count of the frame's geometry — a stream that codes another count
// is ErrBadStream — and ref the decoded reference frame's colour column.
func (s *DecodeScratch) DecodeP(dev *edgesim.Device, dst []geom.Color, data []byte, ref []geom.Color) error {
	st, err := openP(data, false)
	if err == nil {
		err = st.checkPoints(0, len(dst))
	}
	if err != nil || st.nP == 0 {
		return err
	}
	return s.decodeFrame(dev, &st, dst, ref)
}

// decodeFrame runs the body over a whole frame and books the paper's decode
// path beside it: delta payloads are sequential in the stream and parse
// serially, then the blocks reconstruct in one kernel.
func (s *DecodeScratch) decodeFrame(dev *edgesim.Device, st *pstream, dst, ref []geom.Color) error {
	dev.CPUSerial("InterParse", st.nP, edgesim.Cost{OpsPerItem: 40, BytesPerItem: 3}, func() {})
	if err := s.decodeWindow(st, dst, ref); err != nil {
		return err
	}
	dev.GPUNoop("ReconstructP", st.nBlocks, edgesim.Cost{
		OpsPerItem:   costDeltaQuant.OpsPerItem * float64(st.nP) / float64(st.nBlocks),
		BytesPerItem: costDeltaQuant.BytesPerItem * float64(st.nP) / float64(st.nBlocks),
	})
	return nil
}

// DecodePTile reconstructs one tile's slice of the P-frame attribute column
// from an EncodePTile stream, with a fresh scratch and trusting the stream's
// own counts. iFrame is the FULL decoded reference frame. The colours are
// exactly the untiled decoder's output restricted to the tile's point range
// [pointLo, pointHi).
func DecodePTile(data []byte, iFrame []geom.Voxel) (colors []geom.Color, pointLo, pointHi int, err error) {
	st, err := openP(data, true)
	if err != nil {
		return nil, 0, 0, err
	}
	pointLo, pointHi = st.points()
	colors = make([]geom.Color, pointHi-pointLo)
	if err := new(DecodeScratch).decodeWindow(&st, colors, frameColors(iFrame)); err != nil {
		return nil, 0, 0, err
	}
	return colors, pointLo, pointHi, nil
}

// DecodePTile reconstructs one tile's slice of the P-frame attribute column
// from an EncodePTile stream into dst, on the calling goroutine with no
// device kernels. [pointLo, pointLo+len(dst)) is the point range the frame's
// geometry gives the tile — a stream whose block window covers another range
// is ErrBadStream — and ref the FULL decoded reference frame's colour
// column, shared read-only by concurrent tiles.
func (s *DecodeScratch) DecodePTile(dst []geom.Color, pointLo int, data []byte, ref []geom.Color) error {
	st, err := openP(data, true)
	if err == nil {
		err = st.checkPoints(pointLo, len(dst))
	}
	if err != nil {
		return err
	}
	return s.decodeWindow(&st, dst, ref)
}
