package attr

import (
	"bytes"
	"encoding/binary"
	"errors"

	"repro/internal/edgesim"
	"repro/internal/entropy"
	"repro/internal/geom"
)

// Params configures the intra-frame attribute codec.
type Params struct {
	// Segments is the number of macro blocks per frame (paper: 30000 for
	// intra-only, Sec. VI-B).
	Segments int
	// QStep is the residual quantization step (1 = lossless residuals).
	QStep int
	// Layers selects 1- or 2-layer encoding (paper: 2).
	Layers int
	// Entropy additionally arithmetic-codes the packed stream. The paper
	// discards this stage in the fast path (Sec. IV-B3); it exists here for
	// the ablation experiment.
	Entropy bool
	// YCoCg applies the reversible YCoCg-R colour transform before
	// segmentation (decorrelated channels -> smaller residuals).
	YCoCg bool
}

// DefaultParams mirrors the paper's intra-only configuration.
func DefaultParams() Params {
	return Params{Segments: 30000, QStep: 4, Layers: 2}
}

func (p Params) normalized() Params {
	if p.Segments < 1 {
		p.Segments = 1
	}
	if p.QStep < 1 {
		p.QStep = 1
	}
	if p.Layers != 2 {
		p.Layers = 1
	}
	return p
}

// Calibrated kernel costs (per point, per channel-layer); they land the
// full two-layer encode at the paper's ~53 ms for ~0.8 M points.
var (
	costMedianBase  = edgesim.Cost{OpsPerItem: 178, BytesPerItem: 8}
	costResidualQ   = edgesim.Cost{OpsPerItem: 59, BytesPerItem: 8}
	costPackBits    = edgesim.Cost{OpsPerItem: 89, BytesPerItem: 3}
	costUnpackBits  = edgesim.Cost{OpsPerItem: 40, BytesPerItem: 3}
	costReconstr    = edgesim.Cost{OpsPerItem: 30, BytesPerItem: 8}
	costEntropyByte = edgesim.Cost{OpsPerItem: 150, BytesPerItem: 2}
)

// ErrBadStream reports a malformed attribute stream.
var ErrBadStream = errors.New("attr: malformed stream")

// Scratch is the intra attribute encoder's reusable arena: channel columns,
// layer buffers, segment widths/offsets and the contiguous packed stream.
// Buffers grow to the largest frame encoded and are then reused, so
// steady-state encoding allocates only the escaping frame payload. A
// Scratch must not be shared by concurrent encodes.
type Scratch struct {
	buf    bytes.Buffer
	bounds []int
	chans  [3][]int32
	l1, l2 layerData
	segW   []byte
	segOff []int
	packed []byte
	recon  [3][]int32
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Encode compresses the attribute column of a Morton-sorted frame with a
// fresh scratch. colors[i] must correspond to the i-th sorted voxel. Hot
// paths should hold a Scratch and call EncodeWith.
func Encode(dev *edgesim.Device, colors []geom.Color, p Params) ([]byte, error) {
	return EncodeWith(dev, colors, p, new(Scratch), nil)
}

// EncodeWith compresses the attribute column of a Morton-sorted frame,
// reusing the scratch arena. If recon is non-nil it must have len(colors)
// and is filled with the decoder-exact reconstruction of the encoded
// attributes — bit-for-bit what Decode(result) would return — so encoders
// can maintain reference state without a decode round-trip.
func EncodeWith(dev *edgesim.Device, colors []geom.Color, p Params, s *Scratch, recon []geom.Color) ([]byte, error) {
	p = p.normalized()
	n := len(colors)
	buf := &s.buf
	buf.Reset()
	writeUvarint(buf, uint64(n))
	writeUvarint(buf, uint64(p.Segments))
	writeUvarint(buf, uint64(p.QStep))
	buf.WriteByte(byte(p.Layers))
	if p.YCoCg {
		buf.WriteByte(1)
	} else {
		buf.WriteByte(0)
	}
	if n == 0 {
		return framePayload(dev, buf.Bytes(), p)
	}
	s.bounds = segmentBoundsIn(s.bounds, n, p.Segments)
	bounds := s.bounds
	nSeg := len(bounds) - 1
	perSegCost := func(c edgesim.Cost) edgesim.Cost {
		scale := float64(n) / float64(nSeg)
		return edgesim.Cost{OpsPerItem: c.OpsPerItem * scale, BytesPerItem: c.BytesPerItem * scale}
	}

	extractChannelsInto(&s.chans, colors, p.YCoCg)
	for ch := 0; ch < 3; ch++ {
		values := s.chans[ch]

		// Layer 1: Mid + Residual + Quantize, parallel over segments
		// (Sec. IV-A2: "these computations are light-weight, and can be
		// performed in parallel").
		s.l1.bases = grow(s.l1.bases, nSeg)
		s.l1.qd = grow(s.l1.qd, n)
		l1 := s.l1
		dev.GPUKernel("MidResidual", nSeg, perSegCost(costMedianBase), func(s0, s1 int) {
			encodeLayerRange(values, bounds, int32(p.QStep), &l1, s0, s1)
		})
		dev.GPUNoop("Quantize", n, costResidualQ)

		final := l1
		if p.Layers == 2 {
			// Layer 2: re-encode the residual stream (deltas as new
			// attributes, Sec. VI-B), losslessly (q=1).
			s.l2.bases = grow(s.l2.bases, nSeg)
			s.l2.qd = grow(s.l2.qd, n)
			l2 := s.l2
			dev.GPUKernel("MidResidual_L2", nSeg, perSegCost(costMedianBase), func(s0, s1 int) {
				encodeLayerRange(l1.qd, bounds, 1, &l2, s0, s1)
			})
			final = l2
		}

		// Pack: bases (layer 1 [+ layer 2]) then per-segment fixed-width
		// residuals. The residual pack is a compound kernel: a parallel
		// width pass, a serial byte-offset scan, and a parallel scatter of
		// every segment into one contiguous buffer (segments start on byte
		// boundaries, so the output is identical to per-segment streams —
		// without the per-segment allocations).
		s.packBases(buf, l1.bases)
		if p.Layers == 2 {
			s.packBases(buf, final.bases)
		}
		dev.GPUCompute("PackBits", nSeg, perSegCost(costPackBits), func() {
			s.segW = grow(s.segW, nSeg)
			s.segOff = grow(s.segOff, nSeg+1)
			segW, segOff := s.segW, s.segOff
			dev.ParallelFor(nSeg, func(g0, g1 int) {
				for g := g0; g < g1; g++ {
					segW[g] = byte(widthFor(final.qd[bounds[g]:bounds[g+1]]))
				}
			})
			off := 0
			for g := 0; g < nSeg; g++ {
				segOff[g] = off
				off += 1 + (int(segW[g])*(bounds[g+1]-bounds[g])+7)/8
			}
			segOff[nSeg] = off
			s.packed = grow(s.packed, off)
			packed := s.packed
			dev.ParallelFor(nSeg, func(g0, g1 int) {
				for g := g0; g < g1; g++ {
					o := segOff[g]
					packed[o] = segW[g]
					packInto(packed[o+1:segOff[g+1]], final.qd[bounds[g]:bounds[g+1]], uint(segW[g]))
				}
			})
			buf.Write(packed[:off])
		})

		if recon != nil {
			// Decoder-exact channel reconstruction from the layer-1 data:
			// layer 2 is lossless (q=1), so bases2[s]+qd2[i] == qd1[i] and
			// the decoder's value is bases1[s] + qd1[i]*QStep exactly.
			s.recon[ch] = grow(s.recon[ch], n)
			rc := s.recon[ch]
			q := int32(p.QStep)
			dev.ParallelFor(nSeg, func(g0, g1 int) {
				for g := g0; g < g1; g++ {
					for i := bounds[g]; i < bounds[g+1]; i++ {
						rc[i] = l1.bases[g] + l1.qd[i]*q
					}
				}
			})
		}
	}
	if recon != nil {
		r0, r1, r2 := s.recon[0], s.recon[1], s.recon[2]
		ycocg := p.YCoCg
		dev.ParallelFor(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				a, b, c := r0[i], r1[i], r2[i]
				if ycocg {
					a, b, c = yCoCgToRGB(a, b, c)
				}
				recon[i] = geom.Color{R: clampU8i(a), G: clampU8i(b), B: clampU8i(c)}
			}
		})
	}
	return framePayload(dev, buf.Bytes(), p)
}

// framePayload optionally entropy-codes the packed payload, and prefixes a
// 1-byte flag so the decoder knows.
func framePayload(dev *edgesim.Device, payload []byte, p Params) ([]byte, error) {
	if !p.Entropy {
		return append([]byte{0}, payload...), nil
	}
	out := make([]byte, 1, 64+len(payload)/2)
	out[0] = 1
	dev.CPUSerial("AttrEntropy", len(payload), costEntropyByte, func() {
		out = entropy.AppendCompressBytes(out, payload)
	})
	return out, nil
}

// extractChannelsInto splits colours into three int32 channel columns, in
// RGB or YCoCg-R space, reusing the destination buffers.
func extractChannelsInto(chans *[3][]int32, colors []geom.Color, ycocg bool) {
	n := len(colors)
	for ch := range chans {
		chans[ch] = grow(chans[ch], n)
	}
	for i, c := range colors {
		if ycocg {
			y, co, cg := rgbToYCoCg(int32(c.R), int32(c.G), int32(c.B))
			chans[0][i], chans[1][i], chans[2][i] = y, co, cg
		} else {
			chans[0][i], chans[1][i], chans[2][i] = int32(c.R), int32(c.G), int32(c.B)
		}
	}
}

// assembleColors converts decoded channel columns back to RGB colours.
func assembleColors(out []geom.Color, chans [][]int32, ycocg bool) {
	for i := range out {
		a, b, c := chans[0][i], chans[1][i], chans[2][i]
		if ycocg {
			a, b, c = yCoCgToRGB(a, b, c)
		}
		out[i] = geom.Color{R: clampU8i(a), G: clampU8i(b), B: clampU8i(c)}
	}
}

func clampU8i(v int32) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

// packBases writes a width byte plus fixed-width zig-zag codes for the
// per-segment base values, staging through the scratch's packed buffer.
func (s *Scratch) packBases(buf *bytes.Buffer, bases []int32) {
	w := widthFor(bases)
	buf.WriteByte(byte(w))
	nb := (len(bases)*int(w) + 7) / 8
	s.packed = grow(s.packed, nb)
	packInto(s.packed[:nb], bases, w)
	buf.Write(s.packed[:nb])
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

func writeUvarint(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	buf.Write(tmp[:n])
}

func readUvarint(r *bytes.Reader) (uint64, error) {
	v, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, ErrBadStream
	}
	return v, nil
}
