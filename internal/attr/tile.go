package attr

// Serial per-tile intra attribute encoder for the tiled encode path.
//
// A tile covers a whole number of the frame's macro blocks (the tile planner
// snaps cuts to segment boundaries), and Base+Deltas coding is independent
// per segment: the base is the median of that segment's values and the
// residuals reference only that base. Encoding a tile's segments therefore
// reproduces exactly the per-segment values of the untiled encode — the only
// difference is framing (each tile packs its own base columns with its own
// width, and carries its own header), so tiled streams are decode-exact
// against the untiled codec, not byte-identical.
//
// The tile stream is self-contained: it records the GLOBAL frame size and
// segment count plus the tile's segment window, so the decoder steps the
// same segment grid over that window (decode.go) — no side channel needed
// and only four varints of overhead per tile.
//
// Everything here is deliberately serial: tiles are the unit of parallelism
// (the codec fans T tile bodies across the worker pool inside one frame), so
// the per-tile body must be a pool LEAF with no nested kernel dispatch.

import (
	"bytes"
	"fmt"

	"repro/internal/entropy"
	"repro/internal/geom"
)

// TileScratch is the reusable arena for serial tile encodes: tile-local
// bounds, channel columns, layer buffers and the bit-packing staging buffer.
// A TileScratch must not be shared by concurrent tiles — the tiled encoder
// holds one per worker slot.
type TileScratch struct {
	buf    bytes.Buffer
	tb     []int
	chans  [3][]int32
	l1, l2 layerData
	packed []byte
}

// EncodeIntraTile encodes one tile's attribute column as a self-contained
// stream. colors is the tile's slice of the frame's Morton-sorted colours;
// gbounds is the frame's global SegmentBounds(nGlobal, effSegments) grid and
// [segLo, segLo+segCount) the tile's segment window within it, so
// len(colors) must equal gbounds[segLo+segCount]-gbounds[segLo]. If recon is
// non-nil it must have len(colors) and is filled with the decoder-exact
// reconstruction (what DecodeIntraTile would return), so encoders can
// maintain reference state without a decode round-trip.
func EncodeIntraTile(colors []geom.Color, p Params, nGlobal int, gbounds []int, segLo, segCount int, sc *TileScratch, recon []geom.Color) ([]byte, error) {
	p = p.normalized()
	effSeg := len(gbounds) - 1
	segHi := segLo + segCount
	if segLo < 0 || segCount < 1 || segHi > effSeg {
		return nil, fmt.Errorf("attr: tile segment window [%d,%d) outside %d segments", segLo, segHi, effSeg)
	}
	base := gbounds[segLo]
	n := gbounds[segHi] - base
	if len(colors) != n {
		return nil, fmt.Errorf("attr: tile has %d colours, segment window holds %d", len(colors), n)
	}
	if recon != nil && len(recon) != n {
		return nil, fmt.Errorf("attr: recon len %d != tile size %d", len(recon), n)
	}

	buf := &sc.buf
	buf.Reset()
	writeUvarint(buf, uint64(nGlobal))
	writeUvarint(buf, uint64(effSeg))
	writeUvarint(buf, uint64(p.QStep))
	buf.WriteByte(byte(p.Layers))
	if p.YCoCg {
		buf.WriteByte(1)
	} else {
		buf.WriteByte(0)
	}
	writeUvarint(buf, uint64(segLo))
	writeUvarint(buf, uint64(segCount))

	// Tile-local segment bounds: the global grid shifted to start at 0.
	sc.tb = grow(sc.tb, segCount+1)
	tb := sc.tb
	for j := 0; j <= segCount; j++ {
		tb[j] = gbounds[segLo+j] - base
	}

	extractChannelsInto(&sc.chans, colors, p.YCoCg)
	q := int32(p.QStep)
	for ch := 0; ch < 3; ch++ {
		values := sc.chans[ch]

		sc.l1.bases = grow(sc.l1.bases, segCount)
		sc.l1.qd = grow(sc.l1.qd, n)
		l1 := sc.l1
		encodeLayerRange(values, tb, q, &l1, 0, segCount)

		final := l1
		if p.Layers == 2 {
			sc.l2.bases = grow(sc.l2.bases, segCount)
			sc.l2.qd = grow(sc.l2.qd, n)
			l2 := sc.l2
			encodeLayerRange(l1.qd, tb, 1, &l2, 0, segCount)
			final = l2
		}

		sc.packBases(buf, l1.bases)
		if p.Layers == 2 {
			sc.packBases(buf, final.bases)
		}
		for s := 0; s < segCount; s++ {
			lo, hi := tb[s], tb[s+1]
			w := widthFor(final.qd[lo:hi])
			buf.WriteByte(byte(w))
			nb := (int(w)*(hi-lo) + 7) / 8
			sc.packed = grow(sc.packed, nb)
			packInto(sc.packed[:nb], final.qd[lo:hi], w)
			buf.Write(sc.packed[:nb])
		}

		if recon != nil {
			// Layer 2 is lossless (q=1), so the decoder's channel value is
			// bases1[s] + qd1[i]*QStep exactly (see EncodeWith).
			for s := 0; s < segCount; s++ {
				for i := tb[s]; i < tb[s+1]; i++ {
					sc.chans[ch][i] = l1.bases[s] + l1.qd[i]*q
				}
			}
		}
	}
	if recon != nil {
		assembleColors(recon, sc.chans[:], p.YCoCg)
	}
	if !p.Entropy {
		return append([]byte{0}, buf.Bytes()...), nil
	}
	out := make([]byte, 1, 64+buf.Len()/2)
	out[0] = 1
	return entropy.AppendCompressBytes(out, buf.Bytes()), nil
}

// packBases is the tile-scratch counterpart of Scratch.packBases: a width
// byte plus fixed-width zig-zag codes for the tile's per-segment bases.
func (sc *TileScratch) packBases(buf *bytes.Buffer, bases []int32) {
	w := widthFor(bases)
	buf.WriteByte(byte(w))
	nb := (len(bases)*int(w) + 7) / 8
	sc.packed = grow(sc.packed, nb)
	packInto(sc.packed[:nb], bases, w)
	buf.Write(sc.packed[:nb])
}
