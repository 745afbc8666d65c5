package attr

// The intra attribute decoder: one body, DecodeWindow, over a window of the
// segments an opened Stream codes, under two header framings. The untiled
// stream (EncodeWith) covers every segment of the frame; a tile stream
// (EncodeIntraTile) records the frame's global counts plus its own segment
// window, so the per-segment values are the untiled ones and only the
// framing differs. A stream is opened once (OpenFrame, OpenTile) and any
// number of windows of it decode concurrently: an untiled frame is decoded as
// one window per core, a tile as one. The body is pure and device-free;
// opening the untiled framing books the paper's decode kernels, once per
// frame.
//
// Nothing here is sized from a header: the caller's destination window —
// whose length the codec takes from the decoded geometry — is the point
// count, a header that says otherwise is refused before anything is read
// for it, and every slice cut from the payload checks what is left first.

import (
	"encoding/binary"
	"fmt"

	"repro/internal/edgesim"
	"repro/internal/entropy"
	"repro/internal/geom"
)

// Cursor is a bounds-checked read position over a stream's bytes, shared
// with the inter-frame decoder. Every read reports false instead of passing
// the end, and Take checks what is left before it cuts, so no count a
// stream declares becomes memory the stream does not carry.
type Cursor struct {
	buf []byte
	pos int
}

// NewCursor returns a cursor at the start of b.
func NewCursor(b []byte) Cursor { return Cursor{buf: b} }

// Len returns the number of unread bytes.
func (c *Cursor) Len() int { return len(c.buf) - c.pos }

// Byte reads one byte.
func (c *Cursor) Byte() (byte, bool) {
	if c.pos >= len(c.buf) {
		return 0, false
	}
	c.pos++
	return c.buf[c.pos-1], true
}

// Uvarint reads one unsigned varint.
func (c *Cursor) Uvarint() (uint64, bool) {
	v, n := binary.Uvarint(c.buf[c.pos:])
	if n <= 0 {
		return 0, false
	}
	c.pos += n
	return v, true
}

// Varint reads one signed (zig-zag) varint.
func (c *Cursor) Varint() (int64, bool) {
	u, ok := c.Uvarint()
	return int64(u>>1) ^ -int64(u&1), ok
}

// Take cuts the next n bytes.
func (c *Cursor) Take(n int) ([]byte, bool) {
	if n < 0 || n > len(c.buf)-c.pos {
		return nil, false
	}
	c.pos += n
	return c.buf[c.pos-n : c.pos : c.pos], true
}

// Packed reads one fixed-width column of count zig-zag codes: its width byte
// and the ceil(count*width/8) bytes behind it.
func (c *Cursor) Packed(count int) (raw []byte, width uint, ok bool) {
	wb, ok := c.Byte()
	if !ok || wb > maxWidth {
		return nil, 0, false
	}
	raw, ok = c.Take((count*int(wb) + 7) / 8)
	return raw, uint(wb), ok
}

// maxWidth is the widest code a column may declare: a zig-zagged int32 is 32
// bits, and one more has always been let through.
const maxWidth = 33

// SkipVarints steps over the next k varints by their terminator bytes,
// refusing what Uvarint refuses: a varint of more than ten bytes, or a tenth
// byte above 1.
func (c *Cursor) SkipVarints(k int) bool {
	run := 0 // continuation bytes of the varint under the cursor
	for k > 0 {
		if c.pos >= len(c.buf) {
			return false
		}
		b := c.buf[c.pos]
		c.pos++
		switch {
		case run == binary.MaxVarintLen64-1 && b > 1:
			return false
		case b < 0x80:
			run, k = 0, k-1
		default:
			run++
		}
	}
	return true
}

// Unpack fills dst[i] = base + v[from+i]*scale from a column Packed cut: the
// len(dst) values from index from on, which start from bit from*width.
func Unpack(dst []int32, raw []byte, width uint, from int, base, scale int32) {
	if width == 0 {
		for i := range dst {
			dst[i] = base
		}
		return
	}
	var bits uint64
	var n uint
	bit := uint(from) * width
	pos := int(bit / 8)
	if r := bit % 8; r != 0 {
		bits, n = uint64(raw[pos])>>r, 8-r
		pos++
	}
	for i := range dst {
		for n < width {
			bits |= uint64(raw[pos]) << n
			pos++
			n += 8
		}
		dst[i] = base + unzig(uint32(bits&(1<<width-1)))*scale
		bits >>= width
		n -= width
	}
}

// BoundStep walks the grid j*n/segs for j = j0, j0+1, … — the
// SegmentBoundsIn(nil, n, segs) grid when segs is the effective segment count —
// with an add and a compare per step instead of a division or a table: the
// bound advances by n/segs and the remainders carry into it.
type BoundStep struct{ at, rem, q, r, d int }

// NewBoundStep starts the walk at bound j0. n, segs and j0 are at most 2^30.
func NewBoundStep(n, segs, j0 int) BoundStep {
	return BoundStep{at: j0 * n / segs, rem: j0 * n % segs, q: n / segs, r: n % segs, d: segs}
}

// At returns the current bound.
func (s *BoundStep) At() int { return s.at }

// Next steps to the next bound and returns it.
func (s *BoundStep) Next() int {
	s.at += s.q
	if s.rem += s.r; s.rem >= s.d {
		s.rem -= s.d
		s.at++
	}
	return s.at
}

// DecodeScratch is the intra attribute decoder's reusable arena: the
// entropy-decoded payload of the stream it opened, and the base and channel
// columns of the window it decodes. Buffers grow to the largest window decoded
// and are then reused. A scratch must not be shared by concurrent decodes: the
// windows of one stream decode with a scratch each, reading the payload of
// the one that opened it.
type DecodeScratch struct {
	payload []byte
	bases   [2][]int32
	chans   [3][]int32
}

// Stream is an opened intra attribute stream of either framing: the header's
// fields, the segments [segLo, segHi) of the frame's nSeg that it codes —
// every one for the untiled framing, a tile's own for the tile framing — and
// the cursor at its first channel. Windows of one Stream may decode
// concurrently; each reads from a copy of the cursor.
type Stream struct {
	cur          Cursor
	n, nSeg      int
	segLo, segHi int
	qstep        int32
	layers       int
	ycocg        bool
}

// bound returns the first point of segment j of the frame's grid.
func (st *Stream) bound(j int) int { return j * st.n / st.nSeg }

// points returns the stream's point count.
func (st *Stream) points() int {
	if st.n == 0 {
		return 0
	}
	return st.bound(st.segHi) - st.bound(st.segLo)
}

// checkPoints refuses a stream that does not hold exactly the points the
// caller's geometry has.
func (st *Stream) checkPoints(want int) error {
	if got := st.points(); got != want {
		return fmt.Errorf("%w: stream codes %d points, geometry has %d", ErrBadStream, got, want)
	}
	return nil
}

// unwrap strips a stream's flag byte, entropy-decoding the payload into the
// scratch when the flag says so.
func (s *DecodeScratch) unwrap(data []byte) ([]byte, error) {
	if len(data) == 0 || data[0] > 1 {
		return nil, ErrBadStream
	}
	if data[0] == 0 {
		return data[1:], nil
	}
	payload, err := entropy.AppendDecompressBytes(s.payload[:0], data[1:])
	if err != nil {
		return nil, err
	}
	s.payload = payload
	return payload, nil
}

// open parses an unwrapped stream's header: the untiled one, and behind it
// the segment window when tile is set. A frame of zero points has no
// segments, and no tiles.
func open(payload []byte, tile bool) (st Stream, err error) {
	st.cur = NewCursor(payload)
	c := &st.cur
	n, ok1 := c.Uvarint()
	segs, ok2 := c.Uvarint()
	qstep, ok3 := c.Uvarint()
	layers, ok4 := c.Byte()
	if !(ok1 && ok2 && ok3 && ok4) {
		return st, ErrBadStream
	}
	if layers != 1 && layers != 2 {
		return st, fmt.Errorf("attr: bad layer count %d", layers)
	}
	ycocg, ok := c.Byte()
	if !ok || ycocg > 1 {
		return st, ErrBadStream
	}
	st.layers, st.ycocg = int(layers), ycocg == 1
	if n == 0 && !tile {
		return st, nil
	}
	const maxReasonable = 1 << 30
	if n == 0 || n > maxReasonable || segs > maxReasonable || qstep > 1<<20 {
		return st, ErrBadStream
	}
	st.n, st.qstep = int(n), int32(qstep)
	st.nSeg = min(st.n, max(int(segs), 1))
	st.segHi = st.nSeg
	if tile {
		segLo, ok1 := c.Uvarint()
		segCount, ok2 := c.Uvarint()
		// The stream must record the effective segment count, or its window
		// would index a different grid than the encoder's.
		nSeg := uint64(st.nSeg)
		if !ok1 || !ok2 || segs != nSeg || segCount == 0 || segCount > nSeg || segLo > nSeg-segCount {
			return st, ErrBadStream
		}
		st.segLo, st.segHi = int(segLo), int(segLo+segCount)
	}
	return st, nil
}

// DecodeWindow is the one decode body: it reads window w of the given number
// over st's S segments — segments w·S/W up to (w+1)·S/W, the encoder's cut —
// and writes the window's colours to its range of dst, which holds every
// point the stream codes. Per channel the stream carries the base column of
// its segments (one per layer), then every segment's residuals behind their
// width byte; a window unpacks its range of the base column from a bit offset,
// and steps over the residual runs of the segments before it — and, in the
// first two channels, after it — by their width bytes alone. A point is
// base1 + (base2 + residual) * qstep in its channel, converted back from
// YCoCg-R when the stream says so. An empty window reads nothing.
func (s *DecodeScratch) DecodeWindow(dst []geom.Color, st *Stream, w, windows int) error {
	segs := st.segHi - st.segLo
	lo, hi := w*segs/windows, (w+1)*segs/windows
	if st.n == 0 || lo == hi {
		return nil
	}
	c := st.cur
	origin, first, last := st.bound(st.segLo), st.bound(st.segLo+lo), st.bound(st.segLo+hi)
	for ch := range s.chans {
		for l := 0; l < st.layers; l++ {
			raw, width, ok := c.Packed(segs)
			if !ok {
				return ErrBadStream
			}
			s.bases[l] = grow(s.bases[l], hi-lo)
			Unpack(s.bases[l], raw, width, lo, 0, 1)
		}
		s.chans[ch] = grow(s.chans[ch], last-first)
		values := s.chans[ch]
		step := NewBoundStep(st.n, st.nSeg, st.segLo)
		if !c.skipRuns(&step, lo) {
			return ErrBadStream
		}
		for j := 0; j < hi-lo; j++ {
			a := step.At() - first
			b := step.Next() - first
			raw, width, ok := c.Packed(b - a)
			if !ok {
				return ErrBadStream
			}
			base := s.bases[0][j]
			if st.layers == 2 {
				base += s.bases[1][j] * st.qstep // layer 2 is lossless: q = 1
			}
			Unpack(values[a:b], raw, width, 0, base, st.qstep)
		}
		if ch < len(s.chans)-1 && !c.skipRuns(&step, segs-hi) {
			return ErrBadStream
		}
	}
	c0, c1, c2 := s.chans[0], s.chans[1], s.chans[2]
	out := dst[first-origin : last-origin]
	for i := range out {
		a, b, c := c0[i], c1[i], c2[i]
		if st.ycocg {
			a, b, c = yCoCgToRGB(a, b, c)
		}
		out[i] = geom.Color{R: clampU8i(a), G: clampU8i(b), B: clampU8i(c)}
	}
	return nil
}

// skipRuns steps the cursor over the residual runs of the next k segments of
// step's grid by their width bytes, refusing what Packed refuses.
func (c *Cursor) skipRuns(step *BoundStep, k int) bool {
	for ; k > 0; k-- {
		at := step.At()
		if _, _, ok := c.Packed(step.Next() - at); !ok {
			return false
		}
	}
	return true
}

// Decode reconstructs the attribute column of a frame from an EncodeWith
// stream, with a fresh scratch and trusting the stream's own point count.
// Decoders that hold the frame's geometry open the stream for its point count
// (DecodeScratch.OpenFrame) and decode its windows (DecodeWindow).
func Decode(dev *edgesim.Device, data []byte) ([]geom.Color, error) {
	var s DecodeScratch
	st, err := s.openFrame(dev, data)
	if err != nil || st.n == 0 {
		return nil, err
	}
	st.book(dev)
	out := make([]geom.Color, st.n)
	if err := s.DecodeWindow(out, &st, 0, 1); err != nil {
		return nil, err
	}
	return out, nil
}

// OpenFrame unwraps and opens an EncodeWith stream for a frame of the given
// point count, the one its geometry has — a stream that codes another count
// is ErrBadStream. It books the stream's decode on dev from the frame's
// counts, whatever windows then decode it: the entropy stage when the stream
// went through it, then the paper's decode path — stream parsing walks
// segment headers serially (the "sub-optimal" decode path the paper measures
// at ~70 ms/frame end-to-end), then per channel an unpack kernel over the
// points and a reconstruction kernel over the segments.
func (s *DecodeScratch) OpenFrame(dev *edgesim.Device, data []byte, points int) (Stream, error) {
	st, err := s.openFrame(dev, data)
	if err == nil {
		err = st.checkPoints(points)
	}
	if err != nil {
		return Stream{}, err
	}
	st.book(dev)
	return st, nil
}

// openFrame unwraps and opens an untiled stream, booking the entropy stage
// when the stream went through it.
func (s *DecodeScratch) openFrame(dev *edgesim.Device, data []byte) (Stream, error) {
	var payload []byte
	var err error
	if len(data) > 0 && data[0] == 1 {
		dev.CPUSerial("AttrEntropyDecode", len(data)-1, costEntropyByte, func() {
			payload, err = s.unwrap(data)
		})
	} else {
		payload, err = s.unwrap(data)
	}
	if err != nil {
		return Stream{}, err
	}
	return open(payload, false)
}

// book books the paper's decode path of an untiled stream (OpenFrame).
func (st *Stream) book(dev *edgesim.Device) {
	if st.n == 0 {
		return
	}
	dev.CPUSerial("AttrParse", st.n, edgesim.Cost{OpsPerItem: 55, BytesPerItem: 3}, func() {})
	for range 3 {
		dev.GPUNoop("UnpackBits", st.n, costUnpackBits)
		dev.GPUNoop("Reconstruct", st.nSeg, edgesim.Cost{
			OpsPerItem:   costReconstr.OpsPerItem * float64(st.n) / float64(st.nSeg),
			BytesPerItem: costReconstr.BytesPerItem * float64(st.n) / float64(st.nSeg),
		})
	}
}

// DecodeIntraTile reconstructs one tile's attribute column from an
// EncodeIntraTile stream, with a fresh scratch and trusting the stream's own
// counts. The colours are exactly the untiled decoder's output restricted to
// the tile's point range.
func DecodeIntraTile(data []byte) ([]geom.Color, error) {
	var s DecodeScratch
	st, err := s.openTile(data)
	if err != nil {
		return nil, err
	}
	out := make([]geom.Color, st.points())
	if err := s.DecodeWindow(out, &st, 0, 1); err != nil {
		return nil, err
	}
	return out, nil
}

// OpenTile unwraps and opens an EncodeIntraTile stream for a tile of the
// given point count, the one its geometry has, on the calling goroutine with
// no device kernels.
func (s *DecodeScratch) OpenTile(data []byte, points int) (Stream, error) {
	st, err := s.openTile(data)
	if err == nil {
		err = st.checkPoints(points)
	}
	return st, err
}

func (s *DecodeScratch) openTile(data []byte) (Stream, error) {
	payload, err := s.unwrap(data)
	if err != nil {
		return Stream{}, err
	}
	return open(payload, true)
}
