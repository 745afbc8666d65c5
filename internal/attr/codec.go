package attr

import (
	"encoding/binary"
	"errors"
	"fmt"

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

// Columns is a frame's attributes between the encode body and a framing: the
// frame-wide base columns — one base per segment, per channel and layer —
// and, per window the body ran over, that window's packed residual bytes.
// Windows write disjoint ranges of the base columns and their own entry, so
// the bodies of one frame may run concurrently; Reset and the framings must
// not.
type Columns struct {
	p       Params
	bounds  []int // the frame's SegmentBoundsIn grid, the caller's
	bases   [3][2][]int32
	wins    []window
	payload []byte // the unwrapped stream, when the entropy stage follows
}

// window is one body call's output: the segment window it covered and, per
// channel, every segment's width byte and packed residuals, in order.
type window struct {
	segLo, segHi int
	resid        [3][]byte
}

// Reset starts a frame of len(bounds)-1 segments over the grid bounds — the
// frame's SegmentBoundsIn(nil, n, p.Segments), which must stay untouched until the
// frame is framed — coded by the given number of windows.
func (c *Columns) Reset(bounds []int, p Params, windows int) {
	c.p, c.bounds = p.normalized(), bounds
	for ch := range c.bases {
		for l := range c.bases[ch] {
			c.bases[ch][l] = grow(c.bases[ch][l], len(bounds)-1)
		}
	}
	if c.wins = c.wins[:cap(c.wins)]; len(c.wins) < windows {
		c.wins = append(c.wins, make([]window, windows-len(c.wins))...)
	}
	c.wins = c.wins[:windows]
}

// points returns the frame's point count.
func (c *Columns) points() int { return c.bounds[len(c.bounds)-1] }

// Scratch is one unit's working memory for the encode body: the window's
// channel columns, one segment's residuals per layer and the median's copy
// buffer — plus the Columns the one-window front end EncodeWith frames from.
// Buffers grow to the largest window encoded and are then reused. A Scratch
// must not be shared by concurrent encodes.
type Scratch struct {
	chans [3][]int32
	qd    [2][]int32
	med   []int32
	grid  []int
	cols  Columns
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// EncodeWindow is the one encode body: Base+Deltas over the segment window
// [segLo, segLo+segCount) of c's grid, as window w of the frame. colors is
// the window's slice of the frame's Morton-sorted colours. It fills the
// window's range of the base columns and window w's residual bytes; if recon
// is non-nil it must have len(colors) and is filled with the decoder-exact
// reconstruction, so encoders can maintain reference state without a decode
// round-trip. Base+Deltas coding is independent per segment — the base is the
// median of that segment's values and the residuals reference only that base
// — so the values do not depend on how a frame is cut into windows. An empty
// window is valid and codes nothing.
func (s *Scratch) EncodeWindow(c *Columns, w int, colors []geom.Color, segLo, segCount int, recon []geom.Color) error {
	segHi := segLo + segCount
	if segLo < 0 || segCount < 0 || segHi > len(c.bounds)-1 {
		return fmt.Errorf("attr: segment window [%d,%d) outside %d segments", segLo, segHi, len(c.bounds)-1)
	}
	first := c.bounds[segLo]
	if n := c.bounds[segHi] - first; len(colors) != n {
		return fmt.Errorf("attr: window has %d colours, its segments hold %d", len(colors), n)
	} else if recon != nil && len(recon) != n {
		return fmt.Errorf("attr: recon len %d != window size %d", len(recon), n)
	}
	win := &c.wins[w]
	win.segLo, win.segHi = segLo, segHi
	extractChannelsInto(&s.chans, colors, c.p.YCoCg)
	q := int32(c.p.QStep)
	for ch, values := range s.chans {
		out := win.resid[ch][:0]
		for g := segLo; g < segHi; g++ {
			seg := values[c.bounds[g]-first : c.bounds[g+1]-first]
			// Layer 1: Mid + Residual + Quantize (Sec. IV-A2).
			base := Median(seg, &s.med)
			c.bases[ch][0][g] = base
			s.qd[0] = grow(s.qd[0], len(seg))
			final := s.qd[0]
			for i, v := range seg {
				final[i] = Quantize(v-base, q)
				// The decoder's value: layer 2 is lossless, so it hands
				// back exactly this residual.
				seg[i] = base + final[i]*q
			}
			if c.p.Layers == 2 {
				// Layer 2: the residuals as new attributes (Sec. VI-B),
				// losslessly.
				base2 := Median(final, &s.med)
				c.bases[ch][1][g] = base2
				s.qd[1] = grow(s.qd[1], len(seg))
				for i, v := range final {
					s.qd[1][i] = v - base2
				}
				final = s.qd[1]
			}
			out = AppendPacked(out, final)
		}
		win.resid[ch] = out
	}
	if recon != nil {
		assembleColors(recon, s.chans[:], c.p.YCoCg)
	}
	return nil
}

// appendHeader appends the fields both framings open with: the frame's point
// count, a segment count, the quantization step, the layer count and the
// colour-space flag.
func (c *Columns) appendHeader(dst []byte, segments int) []byte {
	dst = binary.AppendUvarint(dst, uint64(c.points()))
	dst = binary.AppendUvarint(dst, uint64(segments))
	dst = binary.AppendUvarint(dst, uint64(c.p.QStep))
	ycocg := byte(0)
	if c.p.YCoCg {
		ycocg = 1
	}
	return append(dst, byte(c.p.Layers), ycocg)
}

// appendChannels appends, per channel, the base column of segments
// [segLo, segHi) at one width per layer, then the residual bytes of windows
// [w0, w1), which must cover exactly those segments in order.
func (c *Columns) appendChannels(dst []byte, segLo, segHi, w0, w1 int) []byte {
	for ch := range c.bases {
		for l := 0; l < c.p.Layers; l++ {
			dst = AppendPacked(dst, c.bases[ch][l][segLo:segHi])
		}
		for _, win := range c.wins[w0:w1] {
			dst = append(dst, win.resid[ch]...)
		}
	}
	return dst
}

// appendFrame appends the untiled stream behind its flag byte: the header,
// then per channel the whole base columns and every window's residual bytes
// in window order, which is segment order.
func (c *Columns) appendFrame(dst []byte) []byte {
	dst = c.appendHeader(dst, c.p.Segments)
	if c.points() == 0 {
		return dst
	}
	return c.appendChannels(dst, 0, len(c.bounds)-1, 0, len(c.wins))
}

// AppendFrame is the untiled framing: it appends the whole frame as one
// stream. A segment's width byte and residuals do not depend on the window
// that coded it, so the stream is the same for any cut. The paper's encode
// kernels are booked on dev beside it, from the frame's counts: per channel a
// median and a quantization kernel per layer and the bit packing (the work
// itself happened in the bodies), then the optional entropy stage, which
// runs here.
func (c *Columns) AppendFrame(dev *edgesim.Device, dst []byte) []byte {
	if n, nSeg := c.points(), len(c.bounds)-1; n > 0 {
		scale := float64(n) / float64(nSeg)
		perSeg := func(k edgesim.Cost) edgesim.Cost {
			return edgesim.Cost{OpsPerItem: k.OpsPerItem * scale, BytesPerItem: k.BytesPerItem * scale}
		}
		for range c.bases {
			dev.GPUNoop("MidResidual", nSeg, perSeg(costMedianBase))
			dev.GPUNoop("Quantize", n, costResidualQ)
			if c.p.Layers == 2 {
				dev.GPUNoop("MidResidual_L2", nSeg, perSeg(costMedianBase))
			}
			dev.GPUNoop("PackBits", nSeg, perSeg(costPackBits))
		}
	}
	if !c.p.Entropy {
		return c.appendFrame(append(dst, 0))
	}
	c.payload = c.appendFrame(c.payload[:0])
	dst = append(dst, 1)
	dev.CPUSerial("AttrEntropy", len(c.payload), costEntropyByte, func() {
		dst = entropy.AppendCompressBytes(dst, c.payload)
	})
	return dst
}

// Encode compresses the attribute column of a Morton-sorted frame with a
// fresh scratch. colors[i] must correspond to the i-th sorted voxel. Hot
// paths should hold a Scratch and call EncodeWith.
func Encode(dev *edgesim.Device, colors []geom.Color, p Params) ([]byte, error) {
	return EncodeWith(dev, colors, p, new(Scratch), nil)
}

// EncodeWith compresses the attribute column of a Morton-sorted frame as one
// window on the calling goroutine, reusing the scratch arena, and returns a
// freshly allocated stream. If recon is non-nil it must have len(colors) and
// is filled with the decoder-exact reconstruction of the encoded attributes
// — bit-for-bit what Decode(result) would return.
func EncodeWith(dev *edgesim.Device, colors []geom.Color, p Params, s *Scratch, recon []geom.Color) ([]byte, error) {
	s.grid = SegmentBoundsIn(s.grid, len(colors), p.Segments)
	s.cols.Reset(s.grid, p, 1)
	if err := s.EncodeWindow(&s.cols, 0, colors, 0, len(s.grid)-1, recon); err != nil {
		return nil, err
	}
	return s.cols.AppendFrame(dev, nil), nil
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
