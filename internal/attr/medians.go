package attr

import (
	"encoding/binary"

	"repro/internal/geom"
)

// Base-layer attribute medians for the layered (encode-once, multi-rate)
// container: the coarsest attribute representation is one RGB triple per
// base-level octree cell — the per-channel lower median of the cell's leaf
// colours, the same "Mid" statistic the Base+Deltas intra codec computes
// per segment. The stream is self-contained and reference-free, so a
// partial layer subscription decodes every frame standalone, P-frames
// included.
//
// Wire format: uvarint cell count, then 3 bytes (R, G, B) per cell, in the
// cells' Morton order.

// EncodeBaseMedians encodes one RGB median per cell. runs holds the cell
// boundaries over colors: cell c covers colors[runs[c]:runs[c+1]]
// (len(runs) == cells+1, first element 0, last element len(colors),
// strictly increasing — every cell non-empty).
func EncodeBaseMedians(colors []geom.Color, runs []int) []byte {
	cells := max(len(runs)-1, 0)
	buf := binary.AppendUvarint(make([]byte, 0, 10+3*cells), uint64(cells))
	var r, g, b, scratch []int32
	for c := 0; c < cells; c++ {
		lo, hi := runs[c], runs[c+1]
		n := hi - lo
		r, g, b = grow(r, n), grow(g, n), grow(b, n)
		for i, col := range colors[lo:hi] {
			r[i], g[i], b[i] = int32(col.R), int32(col.G), int32(col.B)
		}
		buf = append(buf, byte(Median(r, &scratch)), byte(Median(g, &scratch)), byte(Median(b, &scratch)))
	}
	return buf
}

// DecodeBaseMedians inverts EncodeBaseMedians, returning one colour per
// cell. The stream must be exactly consumed.
func DecodeBaseMedians(data []byte) ([]geom.Color, error) {
	c := NewCursor(data)
	n, ok := c.Uvarint()
	if !ok || n > uint64(len(data)) || uint64(c.Len()) != 3*n {
		return nil, ErrBadStream
	}
	out := make([]geom.Color, n)
	for i := range out {
		rgb, _ := c.Take(3)
		out[i] = geom.Color{R: rgb[0], G: rgb[1], B: rgb[2]}
	}
	return out, nil
}
