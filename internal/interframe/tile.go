package interframe

import (
	"encoding/binary"
	"fmt"
)

// EncodePTile is the tile framing: it appends window w as a self-contained
// stream, on the calling goroutine with no device kernels. The stream
// records the frame's global counts plus the window's blocks, and carries
// its own bitmap and pointer column over them. The per-block pointers and
// delta payloads are the untiled stream's; only the framing differs, so
// tiled P streams are decode-exact against the untiled codec — the decoder
// runs one body under both framings (decode.go). A tile holds at least one
// block.
func (c *Columns) EncodePTile(dst []byte, w int) ([]byte, error) {
	win := c.wins[w]
	if win.bHi <= win.bLo {
		return nil, fmt.Errorf("interframe: tile %d holds no block", w)
	}
	dst = c.appendHeader(dst)
	dst = binary.AppendUvarint(dst, uint64(win.bLo))
	dst = binary.AppendUvarint(dst, uint64(win.bHi-win.bLo))
	return c.appendBlocks(dst, win.bLo, win.bHi, w, w+1), nil
}
