// Package attr implements the paper's CONTRIBUTION intra-frame attribute
// codec (Sec. IV-C): points are already sorted in Morton order (reusing the
// geometry pipeline's intermediate codes at no extra cost), segmented into
// equal macro blocks, and each block is stored as one Base value (the
// median) plus quantized residual Deltas per channel. A second layer
// re-encodes the residual stream the same way ("2-layer encoder",
// Sec. VI-B), and everything is packed with fixed-width bit packing —
// deliberately NOT entropy coded, matching the paper's fast path
// (Sec. IV-B3); the entropy stage exists as an explicit option for the
// ablation.
//
// There is one encoder (codec.go): a pure, device-free body over a window of
// the frame's segments that fills the window's range of the frame-wide base
// columns, the window's packed residual bytes and — when asked — the
// decoder-exact reconstruction, into a Columns; and two framings of a
// Columns, the untiled stream over every window (AppendFrame, which books
// the paper's kernels beside it) and the tile stream of one window
// (EncodeIntraTile, tile.go). Encode and EncodeWith are the one-window front
// ends. The per-segment values do not depend on the cut, so a frame coded in
// any number of windows is the same untiled stream.
//
// There is one decoder (decode.go): a pure body over a window of the
// frame's segments that reads the payload through a bounds-checked Cursor
// and writes colours into the caller's window, under the untiled stream's
// framing (every segment) and the tile stream's (the frame's global counts
// plus the tile's window). The point count is the caller's, taken from the
// decoded geometry; a stream that claims another is refused.
//
// The small coders — Median, Quantize, AppendPacked and its readers
// Cursor.Packed / Unpack — live here once; the inter-frame codec uses them.
package attr

import "slices"

// zig/unzig are 32-bit zig-zag maps (small magnitudes -> small codes).
func zig(v int32) uint32   { return uint32(v<<1) ^ uint32(v>>31) }
func unzig(u uint32) int32 { return int32(u>>1) ^ -int32(u&1) }

// widthFor returns the number of bits needed to represent the zig-zag code
// of every value in vs.
func widthFor(vs []int32) uint {
	var maxZ uint32
	for _, v := range vs {
		if z := zig(v); z > maxZ {
			maxZ = z
		}
	}
	w := uint(0)
	for maxZ != 0 {
		w++
		maxZ >>= 1
	}
	return w
}

// AppendPacked appends one fixed-width column: the width byte that holds
// every value of vs, then their zig-zag codes packed LSB-first — what
// Cursor.Packed cuts and Unpack reads back. It is the one bit packer: base
// columns, a segment's residuals and the inter-frame delta blocks all go
// through it.
func AppendPacked(dst []byte, vs []int32) []byte {
	w := widthFor(vs)
	dst = append(dst, byte(w))
	at, nb := len(dst), (len(vs)*int(w)+7)/8
	dst = slices.Grow(dst, nb)[:at+nb]
	packInto(dst[at:], vs, w)
	return dst
}

// packInto packs the zig-zag codes of vs LSB-first at fixed width w into
// dst, which must hold exactly ceil(len(vs)*w/8) bytes.
func packInto(dst []byte, vs []int32, w uint) {
	if w == 0 {
		return
	}
	var bits uint64
	var n uint
	pos := 0
	for _, v := range vs {
		bits |= (uint64(zig(v)) & (1<<w - 1)) << n
		n += w
		for n >= 8 {
			dst[pos] = byte(bits)
			pos++
			bits >>= 8
			n -= 8
		}
	}
	if n > 0 {
		dst[pos] = byte(bits)
	}
}
