package attr

import (
	"encoding/binary"
	"fmt"

	"repro/internal/entropy"
)

// EncodeIntraTile is the tile framing: it appends window w as a
// self-contained stream, on the calling goroutine with no device kernels.
// The stream records the frame's global point and segment counts plus the
// window, so the decoder steps the same segment grid over that window
// (decode.go) — no side channel, four varints of overhead per tile — and
// packs the window's own range of the base columns at its own width. The
// per-segment values are the untiled stream's; only the framing differs, so
// tiled streams are decode-exact against the untiled codec, not
// byte-identical. A tile holds at least one segment.
func (c *Columns) EncodeIntraTile(dst []byte, w int) ([]byte, error) {
	win := c.wins[w]
	if win.segHi <= win.segLo {
		return nil, fmt.Errorf("attr: tile %d holds no segment", w)
	}
	if !c.p.Entropy {
		return c.appendTile(append(dst, 0), w), nil
	}
	c.payload = c.appendTile(c.payload[:0], w)
	return entropy.AppendCompressBytes(append(dst, 1), c.payload), nil
}

func (c *Columns) appendTile(dst []byte, w int) []byte {
	win := c.wins[w]
	dst = c.appendHeader(dst, len(c.bounds)-1)
	dst = binary.AppendUvarint(dst, uint64(win.segLo))
	dst = binary.AppendUvarint(dst, uint64(win.segHi-win.segLo))
	return c.appendChannels(dst, win.segLo, win.segHi, w, w+1)
}
