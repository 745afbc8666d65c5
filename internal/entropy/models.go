package entropy

import (
	"encoding/binary"
	"sync"
)

// ByteModel is an adaptive order-0 byte model: a bit-tree of 255 binary
// contexts, one per internal node of the 8-level decision tree. It adapts to
// the symbol distribution as it codes — occupancy-byte streams (whose
// distribution is heavily skewed towards few-children nodes) compress well
// under it.
type ByteModel struct {
	probs [256]Prob
}

// NewByteModel returns a fresh, unbiased model.
func NewByteModel() *ByteModel {
	m := &ByteModel{}
	m.Init()
	return m
}

// Init resets every context to the unbiased state (for pooled reuse).
func (m *ByteModel) Init() {
	for i := range m.probs {
		m.probs[i] = probInit
	}
}

// Encode codes one byte with e under this model.
func (m *ByteModel) Encode(e *Encoder, b byte) {
	ctx := 1
	for i := 7; i >= 0; i-- {
		bit := int(b >> uint(i) & 1)
		e.EncodeBit(&m.probs[ctx], bit)
		ctx = ctx<<1 | bit
	}
}

// Decode decodes one byte with d under this model.
func (m *ByteModel) Decode(d *Decoder) byte {
	ctx := 1
	for i := 0; i < 8; i++ {
		ctx = ctx<<1 | d.DecodeBit(&m.probs[ctx])
	}
	return byte(ctx & 0xFF)
}

// EncodeSlice codes every byte of data in order — the byte-tree fast path.
// It is byte-identical to calling Encode per byte; the tree walk and the
// range registers stay local across the whole slab.
func (m *ByteModel) EncodeSlice(e *Encoder, data []byte) {
	probs := &m.probs
	rng := e.rng
	for _, b := range data {
		ctx := 1
		for i := 7; i >= 0; i-- {
			bit := int(b >> uint(i) & 1)
			p := probs[ctx]
			bound := (rng >> probBits) * uint32(p)
			if bit == 0 {
				rng = bound
				probs[ctx] = p + (1<<probBits-p)>>probMoves
			} else {
				e.low += uint64(bound)
				rng -= bound
				probs[ctx] = p - p>>probMoves
			}
			ctx = ctx<<1 | bit
			if rng < topValue {
				rng <<= 8
				e.shiftLow()
			}
		}
	}
	e.rng = rng
}

// DecodeSlice fills dst by decoding len(dst) bytes — the decode-side
// byte-tree fast path, bit-exact with per-byte Decode calls.
func (m *ByteModel) DecodeSlice(d *Decoder, dst []byte) {
	probs := &m.probs
	code, rng := d.code, d.rng
	data, pos := d.data, d.pos
	for j := range dst {
		ctx := 1
		for i := 0; i < 8; i++ {
			p := probs[ctx]
			bound := (rng >> probBits) * uint32(p)
			if code < bound {
				rng = bound
				probs[ctx] = p + (1<<probBits-p)>>probMoves
				ctx <<= 1
			} else {
				code -= bound
				rng -= bound
				probs[ctx] = p - p>>probMoves
				ctx = ctx<<1 | 1
			}
			if rng < topValue {
				rng <<= 8
				var nb byte
				if pos < len(data) {
					nb = data[pos]
					pos++
				} else {
					d.overrun++
				}
				code = code<<8 | uint32(nb)
			}
		}
		dst[j] = byte(ctx & 0xFF)
	}
	d.code, d.rng, d.pos = code, rng, pos
}

// UintModel codes unsigned integers with an adaptive Elias-gamma-like
// scheme: a unary-coded bit-length under adaptive contexts followed by the
// mantissa bits at fixed probability. Good for residuals/counts with
// geometric-ish distributions.
type UintModel struct {
	lenProbs [64]Prob
}

// NewUintModel returns a fresh model.
func NewUintModel() *UintModel {
	m := &UintModel{}
	m.Init()
	return m
}

// Init resets every context to the unbiased state (for pooled reuse).
func (m *UintModel) Init() {
	for i := range m.lenProbs {
		m.lenProbs[i] = probInit
	}
}

func bitLen(v uint64) int {
	n := 0
	for v != 0 {
		n++
		v >>= 1
	}
	return n
}

// Encode codes v >= 0. The unary length prefix goes through the batched
// EncodeBits slab (byte-identical to the historical per-bit loop).
func (m *UintModel) Encode(e *Encoder, v uint64) {
	n := bitLen(v)
	if n < len(m.lenProbs) {
		// n one-bits then the zero terminator: (n+1)-bit word 111...10.
		e.EncodeBits(m.lenProbs[:n+1], (1<<uint(n)-1)<<1, n+1)
	} else {
		e.EncodeBits(m.lenProbs[:], ^uint64(0), len(m.lenProbs))
	}
	if n > 1 {
		// Top bit is implied by the length.
		e.EncodeDirect(v&(1<<uint(n-1)-1), n-1)
	}
}

// EncodeSlice codes each value of vs in order, collapsing runs of zeros
// (which cost one zero bit each under the same context) into the zero-run
// fast path. Byte-identical to per-value Encode calls.
func (m *UintModel) EncodeSlice(e *Encoder, vs []uint64) {
	i := 0
	for i < len(vs) {
		if vs[i] == 0 {
			j := i + 1
			for j < len(vs) && vs[j] == 0 {
				j++
			}
			e.EncodeZeroRun(&m.lenProbs[0], j-i)
			i = j
			continue
		}
		m.Encode(e, vs[i])
		i++
	}
}

// Decode decodes one unsigned integer.
func (m *UintModel) Decode(d *Decoder) uint64 {
	n := 0
	for n < len(m.lenProbs) && d.DecodeBit(&m.lenProbs[n]) == 1 {
		n++
	}
	if n == 0 {
		return 0
	}
	v := uint64(1) << uint(n-1)
	if n > 1 {
		v |= d.DecodeDirect(n - 1)
	}
	return v
}

// DecodeSlice fills dst by decoding len(dst) values, bit-exact with
// per-value Decode calls.
func (m *UintModel) DecodeSlice(d *Decoder, dst []uint64) {
	for i := range dst {
		dst[i] = m.Decode(d)
	}
}

// ZigZag maps signed to unsigned so small magnitudes stay small
// (0,-1,1,-2,2 -> 0,1,2,3,4).
func ZigZag(v int64) uint64 {
	return uint64(v<<1) ^ uint64(v>>63)
}

// UnZigZag inverts ZigZag.
func UnZigZag(u uint64) int64 {
	return int64(u>>1) ^ -int64(u&1)
}

// IntModel codes signed integers via ZigZag + UintModel.
type IntModel struct {
	u UintModel
}

// NewIntModel returns a fresh model.
func NewIntModel() *IntModel { return &IntModel{u: *NewUintModel()} }

// Encode codes a signed integer.
func (m *IntModel) Encode(e *Encoder, v int64) { m.u.Encode(e, ZigZag(v)) }

// EncodeSlice codes each value of vs in order, collapsing zero runs (the
// common case for quantized residuals) into the zero-run fast path.
// Byte-identical to per-value Encode calls.
func (m *IntModel) EncodeSlice(e *Encoder, vs []int64) {
	i := 0
	for i < len(vs) {
		if vs[i] == 0 {
			j := i + 1
			for j < len(vs) && vs[j] == 0 {
				j++
			}
			e.EncodeZeroRun(&m.u.lenProbs[0], j-i)
			i = j
			continue
		}
		m.u.Encode(e, ZigZag(vs[i]))
		i++
	}
}

// Decode decodes a signed integer.
func (m *IntModel) Decode(d *Decoder) int64 { return UnZigZag(m.u.Decode(d)) }

// DecodeSlice fills dst by decoding len(dst) signed values, bit-exact with
// per-value Decode calls.
func (m *IntModel) DecodeSlice(d *Decoder, dst []int64) {
	for i := range dst {
		dst[i] = UnZigZag(m.u.Decode(d))
	}
}

// byteCodec bundles one coder state and the models CompressBytes and
// DecompressBytes need, so the whole per-call working set comes from one pool
// hit — or, for the slices of a sliced stream, from one Slicer entry.
type byteCodec struct {
	enc Encoder
	dec Decoder
	lm  UintModel
	bm  ByteModel
}

var byteCodecPool = sync.Pool{New: func() any { return new(byteCodec) }}

// code codes data in c's one coder state — its length, then its bytes under
// the adaptive order-0 model — and returns the stream, which aliases the
// encoder's scratch until c codes again.
func (c *byteCodec) code(data []byte) []byte {
	c.enc.Reset()
	c.lm.Init()
	c.bm.Init()
	c.lm.Encode(&c.enc, uint64(len(data)))
	c.bm.EncodeSlice(&c.enc, data)
	return c.enc.Bytes()
}

// open arms c's decoder over one coded stream and returns the payload length
// it declares, refused above MaxExpansion times the stream.
func (c *byteCodec) open(data []byte) (int, error) {
	if err := c.dec.Reset(data); err != nil {
		return 0, err
	}
	c.lm.Init()
	c.bm.Init()
	n := c.lm.Decode(&c.dec)
	if n > MaxExpansion*uint64(len(data)) {
		return 0, ErrCorrupt
	}
	return int(n), nil
}

// fill decodes the payload of the stream open armed into dst, which holds
// exactly the declared length, and reports a stream that ran out first.
func (c *byteCodec) fill(dst []byte) error {
	c.bm.DecodeSlice(&c.dec, dst)
	return c.dec.Err()
}

// CompressBytes entropy-codes a byte slice with an adaptive order-0 model,
// prefixing the length. This is the generic "Entropy Encoding" stage the
// baseline pipelines apply to their serialized streams.
func CompressBytes(data []byte) []byte {
	return AppendCompressBytes(nil, data)
}

// AppendCompressBytes appends the entropy-coded form of data to dst and
// returns the extended slice. The coder and models come from a pool, so the
// only allocation in steady state is dst's own growth.
func AppendCompressBytes(dst, data []byte) []byte {
	c := byteCodecPool.Get().(*byteCodec)
	dst = append(dst, c.code(data)...)
	byteCodecPool.Put(c)
	return dst
}

// DecompressBytes inverts CompressBytes. A stream that ends before the
// declared payload has been decoded — the decoder cursor running off the
// end of data — is reported as ErrCorrupt rather than silently returning
// zero-filled garbage.
func DecompressBytes(data []byte) ([]byte, error) {
	return AppendDecompressBytes(nil, data)
}

// MaxExpansion bounds the payload length a stream may declare, per stream
// byte, and is checked before the payload buffer is sized. The bound is the
// coder's own: the adaptation shift stops moving a bit probability at 31 and
// at 2017 of 2048, so a coded bit costs at least log2(2048/2017) = 0.022
// bits, a coded byte 0.022 bytes of stream, and no stream expands more than
// 46 times (1 MiB of one repeated byte codes to 23.1 KB, 45.4 times).
const MaxExpansion = 64

// AppendDecompressBytes appends the decoded payload to dst and returns the
// extended slice (pooled decoder/models, same corruption checks as
// DecompressBytes).
func AppendDecompressBytes(dst, data []byte) ([]byte, error) {
	c := byteCodecPool.Get().(*byteCodec)
	defer byteCodecPool.Put(c)
	n, err := c.open(data)
	if err != nil {
		return nil, err
	}
	base := len(dst)
	dst = growBy(dst, n)
	if err := c.fill(dst[base:]); err != nil {
		return nil, err
	}
	return dst, nil
}

// growBy extends dst by n bytes, reallocating only when its capacity is short.
func growBy(dst []byte, n int) []byte {
	base := len(dst)
	if cap(dst)-base < n {
		grown := make([]byte, base+n)
		copy(grown, dst)
		return grown
	}
	return dst[:base+n]
}

// SliceBytes is the most raw bytes one slice of a sliced stream holds. Each
// slice restarts the adaptive model, so the bound trades bits for parallel
// work: on the sparse LiDAR workload fixed 4, 8 and 16 KiB slices cost 0.9,
// 0.45 and 0.20 % more bits per point than one state, ⌈n/32 KiB⌉ equal slices
// 0.11 %, and the latter still gives two cores a slice each.
const SliceBytes = 32 << 10

// SliceCount returns how many slices an n-byte stream is cut into:
// ⌈n / SliceBytes⌉, and one for an empty stream. It depends on n alone.
func SliceCount(n int) int { return max((n+SliceBytes-1)/SliceBytes, 1) }

// Fan runs body over [0, n) as contiguous chunks that may run concurrently,
// returning once every chunk has — a worker pool's parallel-for. The bodies
// the sliced codec hands it are leaves: they submit nothing.
type Fan func(n int, body func(lo, hi int))

// Slicer is the working memory of the sliced codec: one coder state per
// slice, which also holds the slice's output while it is compressed. It grows
// to the most slices it has coded and serves one stream at a time.
//
// A sliced stream is [uvarint n][uvarint compressed length × S][S slices]:
// the n raw bytes cut into S = SliceCount(n) equal contiguous slices, slice i
// being raw[i·n/S : (i+1)·n/S], each coded as CompressBytes codes it, in its
// own coder state. S follows from n alone, never from who runs the slices, so
// the stream is the same byte for byte however the fan splits them.
type Slicer struct {
	slices []slice
}

type slice struct {
	byteCodec
	// Decompressing: the slice's coded length and span, and what its
	// decode failed with.
	size int
	src  []byte
	err  error
}

// take returns the first s slice states, growing the arena to hold them.
func (sl *Slicer) take(s int) []slice {
	for len(sl.slices) < s {
		sl.slices = append(sl.slices, slice{})
	}
	return sl.slices[:s]
}

// run hands body to fan, or runs it inline when fan is nil.
func run(fan Fan, n int, body func(lo, hi int)) {
	if fan == nil {
		body(0, n)
		return
	}
	fan(n, body)
}

// AppendCompress appends the sliced stream of data to dst. The slices are
// compressed by one fan-out (inline when fan is nil), then copied out behind
// the header in order.
func (sl *Slicer) AppendCompress(dst, data []byte, fan Fan) []byte {
	n := len(data)
	ss := sl.take(SliceCount(n))
	run(fan, len(ss), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ss[i].code(data[i*n/len(ss) : (i+1)*n/len(ss)])
		}
	})
	dst = binary.AppendUvarint(dst, uint64(n))
	for i := range ss {
		dst = binary.AppendUvarint(dst, uint64(len(ss[i].enc.out)))
	}
	for i := range ss {
		dst = append(dst, ss[i].enc.out...)
	}
	return dst
}

// AppendDecompress inverts AppendCompress: it appends the raw bytes of the
// sliced stream data to dst, each slice decoded straight into its range by
// one fan-out (inline when fan is nil). Before dst is sized the header must
// hold: n at most MaxExpansion times the stream, and slice lengths that tile
// the rest of the stream exactly. A slice whose stream declares another
// length than its range, or runs out before filling it, is ErrCorrupt.
func (sl *Slicer) AppendDecompress(dst, data []byte, fan Fan) ([]byte, error) {
	n, k := binary.Uvarint(data)
	if k <= 0 || n > MaxExpansion*uint64(len(data)) {
		return nil, ErrCorrupt
	}
	// The bound also caps the slice states taken at one per 512 stream bytes.
	data, s := data[k:], SliceCount(int(n))
	ss := sl.take(s)
	for i := range ss {
		c, k := binary.Uvarint(data)
		if k <= 0 || c > uint64(len(data)) {
			return nil, ErrCorrupt
		}
		data, ss[i].size = data[k:], int(c)
	}
	for i := range ss {
		if ss[i].size > len(data) {
			return nil, ErrCorrupt
		}
		ss[i].src, data = data[:ss[i].size], data[ss[i].size:]
	}
	if len(data) != 0 {
		return nil, ErrCorrupt
	}
	base, raw := len(dst), int(n)
	dst = growBy(dst, raw)
	out := dst[base:]
	run(fan, s, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			part := out[i*raw/s : (i+1)*raw/s]
			m, err := ss[i].open(ss[i].src)
			if err == nil && m != len(part) {
				err = ErrCorrupt
			}
			if err == nil {
				err = ss[i].fill(part)
			}
			ss[i].src, ss[i].err = nil, err
		}
	})
	for i := range ss {
		if err := ss[i].err; err != nil {
			return nil, err
		}
	}
	return dst, nil
}
