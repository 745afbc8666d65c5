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
// There is one decoder (decode.go): a pure body over a window of the
// frame's segments that reads the payload through a bounds-checked Cursor
// and writes colours into the caller's window, under the untiled stream's
// framing (EncodeWith: every segment) and the tile stream's
// (EncodeIntraTile: the frame's global counts plus the tile's window). The
// point count is the caller's, taken from the decoded geometry; a stream
// that claims another is refused.
package attr

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
