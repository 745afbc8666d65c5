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

// AppendBaseMedians appends one RGB median per cell to dst. runs holds the
// cell boundaries over colors: cell c covers colors[runs[c]:runs[c+1]]
// (len(runs) == cells+1, first element 0, last element len(colors),
// strictly increasing — every cell non-empty). It works in s's channel
// columns and allocates nothing once they have grown.
func (s *Scratch) AppendBaseMedians(dst []byte, colors []geom.Color, runs []int) []byte {
	cells := max(len(runs)-1, 0)
	dst = binary.AppendUvarint(dst, uint64(cells))
	for c := 0; c < cells; c++ {
		cell := colors[runs[c]:runs[c+1]]
		for ch := range s.chans {
			s.chans[ch] = grow(s.chans[ch], len(cell))
		}
		for i, col := range cell {
			s.chans[0][i], s.chans[1][i], s.chans[2][i] = int32(col.R), int32(col.G), int32(col.B)
		}
		dst = append(dst, byte(Median(s.chans[0], &s.med)), byte(Median(s.chans[1], &s.med)), byte(Median(s.chans[2], &s.med)))
	}
	return dst
}

// DecodeBaseMedians inverts AppendBaseMedians into the caller's window of
// cells: the stream holds `cells` medians and the window's cells are first,
// first+1, … — every colour of the window's cell c, dst[runs[c]:runs[c+1]]
// with runs as AppendBaseMedians takes them over dst, becomes median
// first+c. The stream must be exactly consumed and hold exactly `cells`
// medians, and the window must lie within them.
func DecodeBaseMedians(dst []geom.Color, data []byte, cells, first int, runs []int) error {
	c := NewCursor(data)
	n, ok := c.Uvarint()
	k := max(len(runs)-1, 0)
	if !ok || n != uint64(cells) || uint64(c.Len()) != 3*n || first < 0 || first+k > cells {
		return ErrBadStream
	}
	meds, _ := c.Take(3 * cells)
	for i := 0; i < k; i++ {
		rgb := meds[3*(first+i):]
		med := geom.Color{R: rgb[0], G: rgb[1], B: rgb[2]}
		for j := runs[i]; j < runs[i+1]; j++ {
			dst[j] = med
		}
	}
	return nil
}
