package interframe

import (
	"bytes"
	"encoding/binary"
	"slices"
)

// Small wire helpers of the inter-frame encoders: varints, medians,
// quantization, and per-block fixed-width residual packing (the same
// GPU-friendly format internal/attr uses; the decoder reads it back through
// attr.Cursor and attr.Unpack).

func writeUvarint(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	buf.Write(tmp[:n])
}

func writeVarint(buf *bytes.Buffer, v int64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], v)
	buf.Write(tmp[:n])
}

func appendVarint(dst []byte, v int64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], v)
	return append(dst, tmp[:n]...)
}

// medianI32 returns the lower median of vs via the caller's reusable copy
// buffer (vs is not modified).
func medianI32(vs []int32, scratch *[]int32) int32 {
	if len(vs) == 0 {
		return 0
	}
	if scratch == nil {
		scratch = new([]int32)
	}
	s := append((*scratch)[:0], vs...)
	*scratch = s
	slices.Sort(s)
	return s[(len(s)-1)/2]
}

func quantizeI32(v, q int32) int32 {
	if q <= 1 {
		return v
	}
	if v >= 0 {
		return (v + q/2) / q
	}
	return -((-v + q/2) / q)
}

func zig32(v int32) uint32 { return uint32(v<<1) ^ uint32(v>>31) }

// appendResiduals appends a width byte followed by fixed-width zig-zag
// codes.
func appendResiduals(dst []byte, vs []int32) []byte {
	var maxZ uint32
	for _, v := range vs {
		if z := zig32(v); z > maxZ {
			maxZ = z
		}
	}
	w := uint(0)
	for maxZ != 0 {
		w++
		maxZ >>= 1
	}
	dst = append(dst, byte(w))
	var bits uint64
	var n uint
	for _, v := range vs {
		bits |= (uint64(zig32(v)) & (1<<w - 1)) << n
		n += w
		for n >= 8 {
			dst = append(dst, byte(bits))
			bits >>= 8
			n -= 8
		}
	}
	if n > 0 {
		dst = append(dst, byte(bits))
	}
	return dst
}
