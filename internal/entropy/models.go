package entropy

import "sync"

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

// NibbleModel is a 4-bit bit-tree model (15 contexts), used where symbols
// are small (e.g. quantized residual magnitudes).
type NibbleModel struct {
	probs [16]Prob
}

// NewNibbleModel returns a fresh model.
func NewNibbleModel() *NibbleModel {
	m := &NibbleModel{}
	for i := range m.probs {
		m.probs[i] = NewProb()
	}
	return m
}

// Encode codes the low 4 bits of v.
func (m *NibbleModel) Encode(e *Encoder, v byte) {
	ctx := 1
	for i := 3; i >= 0; i-- {
		bit := int(v >> uint(i) & 1)
		e.EncodeBit(&m.probs[ctx], bit)
		ctx = ctx<<1 | bit
	}
}

// Decode decodes 4 bits.
func (m *NibbleModel) Decode(d *Decoder) byte {
	ctx := 1
	for i := 0; i < 4; i++ {
		ctx = ctx<<1 | d.DecodeBit(&m.probs[ctx])
	}
	return byte(ctx & 0x0F)
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

// byteCodec bundles the coder and the models CompressBytes/DecompressBytes
// need, so the whole per-call working set comes from one pool hit.
type byteCodec struct {
	enc Encoder
	dec Decoder
	lm  UintModel
	bm  ByteModel
}

var byteCodecPool = sync.Pool{New: func() any { return new(byteCodec) }}

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
	c.enc.Reset()
	c.lm.Init()
	c.bm.Init()
	c.lm.Encode(&c.enc, uint64(len(data)))
	c.bm.EncodeSlice(&c.enc, data)
	dst = append(dst, c.enc.Bytes()...)
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
	if err := c.dec.Reset(data); err != nil {
		return nil, err
	}
	c.lm.Init()
	c.bm.Init()
	n := c.lm.Decode(&c.dec)
	if n > MaxExpansion*uint64(len(data)) {
		return nil, ErrCorrupt
	}
	base := len(dst)
	if cap(dst)-base < int(n) {
		grown := make([]byte, base+int(n))
		copy(grown, dst)
		dst = grown
	} else {
		dst = dst[:base+int(n)]
	}
	c.bm.DecodeSlice(&c.dec, dst[base:])
	if err := c.dec.Err(); err != nil {
		return nil, err
	}
	return dst, nil
}
