package interframe

// The P-frame attribute decoder: one body, DecodeWindow, over a window of
// the P-blocks an opened Stream codes, under two header framings. The
// untiled stream (EncodePWith) covers every block; a tile stream
// (EncodePTile) records the frame's global counts plus its own block window,
// and every per-block value — candidate-window centre, reference pointer,
// delta payload — depends only on the block's global index, so the colours
// are the untiled ones and only the framing differs. A stream is opened once
// (OpenP, OpenPTile) and any number of windows of it decode concurrently: an
// untiled frame is decoded as one window per core, a tile as one. The body is
// pure and device-free; opening the untiled framing books the paper's decode
// kernels, once per frame.
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
// be shared by concurrent decodes: the windows of one stream decode with a
// scratch each.
type DecodeScratch struct {
	refs  []int32
	delta [3][]int32
}

// Stream is an opened P stream of either framing: the header's fields, the
// blocks [bLo, bHi) of the frame's nBlocks that it codes — every one for the
// untiled framing, a tile's own for the tile framing — and the cursor at
// their reuse bitmap. Windows of one Stream may decode concurrently; each
// reads from a copy of the cursor.
type Stream struct {
	cur         attr.Cursor
	nP, nBlocks int
	segs        int
	bLo, bHi    int
	qstep       int32
}

// bound returns the first point of P-block j.
func (st *Stream) bound(j int) int { return j * st.nP / st.nBlocks }

// points returns the stream's point range in the P-frame.
func (st *Stream) points() (lo, hi int) {
	if st.nP == 0 {
		return 0, 0
	}
	return st.bound(st.bLo), st.bound(st.bHi)
}

// checkPoints refuses a stream whose blocks are not the point range
// [lo, lo+n) the caller's geometry puts them at.
func (st *Stream) checkPoints(lo, n int) error {
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
func openP(data []byte, tile bool) (st Stream, err error) {
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

// DecodeWindow is the one decode body: it reads window w of the given number
// over st's B blocks — blocks w·B/W up to (w+1)·B/W, the encoder's cut — and
// writes the window's colours to its range of dst, which holds every point
// the stream codes. The stream carries the reuse bitmap and the pointer
// column of all its blocks, then the delta payloads of the non-reuse ones; a
// window reads its bits of the bitmap, steps over the pointers before and
// after its own by their terminator bytes, and over the payloads before its
// own by their varint terminators and width bytes. ref is the decoded
// reference frame's colour column, whole: a block may point at any I-block of
// its candidate window. An empty window reads nothing. Whatever a window
// finds wrong — a pointer outside the reference included — is ErrBadStream,
// so a stream fails the same way however it is cut.
func (s *DecodeScratch) DecodeWindow(dst, ref []geom.Color, st *Stream, w, windows int) error {
	if st.nP == 0 {
		return nil
	}
	nI := len(ref)
	if nI == 0 {
		return errors.New("interframe: empty reference frame")
	}
	blocks := st.bHi - st.bLo
	lo, hi := w*blocks/windows, (w+1)*blocks/windows
	if lo == hi {
		return nil
	}
	nIBlocks := min(nI, max(st.segs, 1))
	c := st.cur
	bitmap, ok := c.Take((blocks + 7) / 8)
	if !ok || !c.SkipVarints(lo) {
		return ErrBadStream
	}
	// Pointers are offsets from the candidate window's centre, the I-block
	// co-located with the P-block.
	s.refs = grow(s.refs, hi-lo)
	refs := s.refs
	center := attr.NewBoundStep(nIBlocks, st.nBlocks, st.bLo+lo)
	for k := range refs {
		off, ok := c.Varint()
		if !ok {
			return ErrBadStream
		}
		r := int64(center.At()) + off
		center.Next()
		if r < 0 || r >= int64(nIBlocks) {
			return ErrBadStream
		}
		refs[k] = int32(r)
	}
	if !c.SkipVarints(blocks - hi) {
		return ErrBadStream
	}
	bound := attr.NewBoundStep(st.nP, st.nBlocks, st.bLo)
	origin := bound.At()
	for k := 0; k < lo; k++ {
		at := bound.At()
		if n := bound.Next() - at; bitmap[k/8]>>uint(k%8)&1 == 0 && !skipDelta(&c, n) {
			return ErrBadStream
		}
	}
	for k, r := range refs {
		at := bound.At() - origin
		block := dst[at : bound.Next()-origin]
		// I-block r, which is point r when the reference has no more points
		// than blocks (two divisions saved per block where blocks are
		// shortest).
		iv := ref[r : r+1]
		if nIBlocks != nI {
			iv = ref[int(r)*nI/nIBlocks : (int(r)+1)*nI/nIBlocks]
		}
		if j := lo + k; bitmap[j/8]>>uint(j%8)&1 == 1 {
			reuseBlock(block, iv)
		} else if err := s.decodeDelta(&c, block, iv, st.qstep); err != nil {
			return err
		}
	}
	return nil
}

// skipDelta steps the cursor over one delta payload of an n-point block by
// its varint terminators and width bytes, refusing what decodeDelta refuses.
func skipDelta(c *attr.Cursor, n int) bool {
	for range 3 {
		if !c.SkipVarints(1) {
			return false
		}
		if _, _, ok := c.Packed(n); !ok {
			return false
		}
	}
	return true
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
		attr.Unpack(s.delta[ch], raw, w, 0, int32(base), q)
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
// frame's geometry open the stream for its point count (OpenP) and decode its
// windows (DecodeScratch.DecodeWindow).
func DecodeP(dev *edgesim.Device, data []byte, iFrame []geom.Voxel) ([]geom.Color, error) {
	st, err := openP(data, false)
	if err != nil || st.nP == 0 {
		return nil, err
	}
	st.book(dev)
	out := make([]geom.Color, st.nP)
	if err := new(DecodeScratch).DecodeWindow(out, frameColors(iFrame), &st, 0, 1); err != nil {
		return nil, err
	}
	return out, nil
}

// OpenP opens an EncodePWith stream for a P-frame of the given point count,
// the one its geometry has — a stream that codes another count is
// ErrBadStream. It books the stream's decode on dev from the frame's counts,
// whatever windows then decode it: the paper's delta payloads are sequential
// in the stream and parse serially, then the blocks reconstruct in one
// kernel.
func OpenP(dev *edgesim.Device, data []byte, points int) (Stream, error) {
	st, err := openP(data, false)
	if err == nil {
		err = st.checkPoints(0, points)
	}
	if err != nil {
		return Stream{}, err
	}
	st.book(dev)
	return st, nil
}

// book books the paper's decode path of an untiled stream (OpenP).
func (st *Stream) book(dev *edgesim.Device) {
	if st.nP == 0 {
		return
	}
	dev.CPUSerial("InterParse", st.nP, edgesim.Cost{OpsPerItem: 40, BytesPerItem: 3}, func() {})
	dev.GPUNoop("ReconstructP", st.nBlocks, edgesim.Cost{
		OpsPerItem:   costDeltaQuant.OpsPerItem * float64(st.nP) / float64(st.nBlocks),
		BytesPerItem: costDeltaQuant.BytesPerItem * float64(st.nP) / float64(st.nBlocks),
	})
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
	if err := new(DecodeScratch).DecodeWindow(colors, frameColors(iFrame), &st, 0, 1); err != nil {
		return nil, 0, 0, err
	}
	return colors, pointLo, pointHi, nil
}

// OpenPTile opens an EncodePTile stream for the tile at point range
// [pointLo, pointLo+points) of the P-frame, the range the frame's geometry
// gives it — a stream whose blocks cover another range is ErrBadStream — on
// the calling goroutine with no device kernels.
func OpenPTile(data []byte, pointLo, points int) (Stream, error) {
	st, err := openP(data, true)
	if err == nil {
		err = st.checkPoints(pointLo, points)
	}
	return st, err
}
