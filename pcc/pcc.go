// Package pcc is the public API of this repository: a point-cloud
// compression library reproducing "Pushing Point Cloud Compression to the
// Edge" (MICRO 2022).
//
// It offers five end-to-end codecs — the paper's two proposals
// (Morton-parallel intra-frame compression, and intra+inter with
// block-match attribute reuse at two operating points) and the two
// state-of-the-art baselines they are evaluated against (a TMC13-like
// octree+RAHT intra codec and a CWIPC-like macro-block inter codec) — plus
// the synthetic dynamic point-cloud dataset, the edge-device model that
// reports simulated Jetson-class latency and energy alongside real
// execution, and the quality metrics used in the paper's evaluation.
//
// Quick start:
//
//	enc := pcc.NewEncoder(pcc.IntraOnly)
//	frame, _ := pcc.NewVideo("loot", 0.05).Frame(0)
//	bits, stats, _ := enc.Encode(frame)
//	dec := pcc.NewDecoder(enc.Options())
//	decoded, _ := dec.Decode(bits)
package pcc

import (
	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/edgesim"
	"repro/internal/geom"
	"repro/internal/metrics"
)

// Core data types.
type (
	// PointCloud is one voxelized point-cloud frame.
	PointCloud = geom.VoxelCloud
	// Point is a single voxel: lattice coordinates plus colour.
	Point = geom.Voxel
	// Color is an 8-bit-per-channel RGB attribute.
	Color = geom.Color
	// RawCloud is an unquantized (float-coordinate) frame.
	RawCloud = geom.Cloud
	// RawPoint is a float-coordinate captured point.
	RawPoint = geom.Point
)

// Voxelize quantizes a raw float-coordinate cloud into a 2^depth lattice
// (the paper's datasets use depth 10, i.e. 1024^3).
func Voxelize(c *RawCloud, depth uint) (*PointCloud, error) { return geom.Voxelize(c, depth) }

// Design selects a codec design.
type Design = codec.Design

// The five designs of the paper's evaluation (Sec. VI-B).
const (
	// TMC13 is the intra-frame baseline: sequential octree + RAHT.
	TMC13 = codec.TMC13
	// CWIPC is the inter-frame baseline: octree + macro-block matching.
	CWIPC = codec.CWIPC
	// IntraOnly is the paper's Morton-parallel intra proposal.
	IntraOnly = codec.IntraOnly
	// IntraInterV1 adds inter-frame reuse, quality-oriented threshold.
	IntraInterV1 = codec.IntraInterV1
	// IntraInterV2 adds inter-frame reuse, compression-oriented threshold.
	IntraInterV2 = codec.IntraInterV2
)

// Designs returns all five designs in the paper's order.
func Designs() []Design { return codec.Designs() }

// Options configures a codec; zero values are filled with the paper's
// configuration for the design.
type Options = codec.Options

// DefaultOptions returns the paper's configuration for a design.
func DefaultOptions(d Design) Options { return codec.OptionsFor(d) }

// AdaptiveRate enables the closed-loop congestion controller: receiver
// feedback (stream.ReceiverConfig.FeedbackEvery) and local pipeline
// pressure steer the GOP length, attribute quantization and reuse
// threshold. It is the only thing that moves those knobs, and it moves no
// transport setting (stream.FECConfig's group size is fixed):
// left false, each stays at its configured value (the paper's Sec. VI-E
// threshold is a hand-tuned operating point) and the codec is
// byte-for-byte identical to a non-adaptive one. Enabled is its only
// field — the controller's thresholds and clamps are fixed. Set it on
// Options.Adapt.
type AdaptiveRate = codec.AdaptiveRate

// EncodedFrame is one compressed frame.
type EncodedFrame = codec.EncodedFrame

// FrameStats reports per-frame latency/energy/size metrics from the edge
// device model.
type FrameStats = codec.FrameStats

// PowerMode selects the modelled edge board's power budget.
type PowerMode = edgesim.PowerMode

// Power modes of the Jetson AGX Xavier model (Sec. VI-C).
const (
	Mode15W = edgesim.Mode15W
	Mode10W = edgesim.Mode10W
)

// Device is the edge-SoC execution model; it accumulates simulated latency,
// energy, per-stage and per-kernel ledgers while the codecs really run.
type Device = edgesim.Device

// NewDevice creates a Jetson-AGX-Xavier-class device model.
func NewDevice(mode PowerMode) *Device { return edgesim.NewXavier(mode) }

// Encoder compresses a stream of frames under one design.
type Encoder struct {
	enc *codec.Encoder
	dev *Device
}

// NewEncoder creates an encoder with the paper's default configuration for
// the design, on a fresh 15 W device model.
func NewEncoder(d Design) *Encoder { return NewEncoderOptions(DefaultOptions(d)) }

// NewEncoderOptions creates an encoder with explicit options.
func NewEncoderOptions(o Options) *Encoder {
	dev := NewDevice(Mode15W)
	return &Encoder{enc: codec.NewEncoder(dev, o), dev: dev}
}

// NewEncoderOn creates an encoder running on a caller-supplied device
// (e.g. a 10 W model, or a shared device accumulating a whole video).
func NewEncoderOn(dev *Device, o Options) *Encoder {
	return &Encoder{enc: codec.NewEncoder(dev, o), dev: dev}
}

// Encode compresses the next frame of the stream.
func (e *Encoder) Encode(vc *PointCloud) (*EncodedFrame, FrameStats, error) {
	return e.enc.EncodeFrame(vc)
}

// Options returns the encoder's normalized configuration.
func (e *Encoder) Options() Options { return e.enc.Options() }

// Device returns the underlying device model (latency/energy ledgers).
func (e *Encoder) Device() *Device { return e.dev }

// Reset restarts the GOP (the next frame will be an I-frame).
func (e *Encoder) Reset() { e.enc.Reset() }

// Decoder reconstructs frames encoded with matching Options.
type Decoder struct {
	dec *codec.Decoder
	dev *Device
}

// NewDecoder creates a decoder on a fresh 15 W device model.
func NewDecoder(o Options) *Decoder {
	dev := NewDevice(Mode15W)
	return &Decoder{dec: codec.NewDecoder(dev, o), dev: dev}
}

// NewDecoderOn creates a decoder on a caller-supplied device.
func NewDecoderOn(dev *Device, o Options) *Decoder {
	return &Decoder{dec: codec.NewDecoder(dev, o), dev: dev}
}

// Decode reconstructs a frame. Frames must be decoded in stream order for
// inter designs.
func (d *Decoder) Decode(f *EncodedFrame) (*PointCloud, error) { return d.dec.DecodeFrame(f) }

// Device returns the underlying device model.
func (d *Decoder) Device() *Device { return d.dev }

// Reset clears inter-frame reference state.
func (d *Decoder) Reset() { d.dec.Reset() }

// Video is a synthetic dynamic point-cloud video (the stand-in for the
// 8iVFB/MVUB captures in the paper's Table I).
type Video struct {
	gen *dataset.Generator
}

// VideoNames lists the six Table I presets.
func VideoNames() []string {
	specs := dataset.TableI()
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// NewVideo opens a Table I preset at the given scale (1.0 reproduces the
// paper's per-frame point count; smaller scales generate proportionally
// smaller frames for quick experiments). Unknown names panic — use
// VideoNames to enumerate; use NewVideoChecked to handle errors.
func NewVideo(name string, scale float64) *Video {
	v, err := NewVideoChecked(name, scale)
	if err != nil {
		panic(err)
	}
	return v
}

// NewVideoChecked is NewVideo with an error return.
func NewVideoChecked(name string, scale float64) (*Video, error) {
	spec, err := dataset.SpecByName(name)
	if err != nil {
		return nil, err
	}
	return &Video{gen: dataset.NewGenerator(spec, scale)}, nil
}

// Name returns the video's name.
func (v *Video) Name() string { return v.gen.Spec.Name }

// Frames returns the video length.
func (v *Video) Frames() int { return v.gen.Spec.Frames }

// TargetPoints returns the (scaled) per-frame voxel target.
func (v *Video) TargetPoints() int { return v.gen.TargetPoints() }

// Frame generates frame t.
func (v *Video) Frame(t int) (*PointCloud, error) { return v.gen.Frame(t) }

// Quality metrics (as computed by MPEG's pc_error).

// GeometryPSNR is the symmetric point-to-point geometry PSNR in dB
// (+Inf when lossless).
func GeometryPSNR(orig, decoded *PointCloud) (float64, error) {
	return metrics.GeometryPSNR(orig, decoded)
}

// AttributePSNR compares colours of order-aligned clouds, returning luma
// and RGB PSNR in dB.
func AttributePSNR(orig, decoded []Color) (lumaDB, rgbDB float64, err error) {
	return metrics.AttributePSNR(orig, decoded)
}

// CompressionRatio is rawBytes/compressedBytes.
func CompressionRatio(rawBytes, compressedBytes int64) float64 {
	return metrics.CompressionRatio(rawBytes, compressedBytes)
}
