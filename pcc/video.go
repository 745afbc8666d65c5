package pcc

import (
	"io"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/geom"
)

// StreamWriter encodes frames into a self-describing .pcv byte stream
// (header with the codec configuration, then one container per frame), so
// a receiver needs nothing but the stream to decode — the transmission
// format of the paper's end-to-end pipeline (Fig. 1). A pcc/stream Session
// encodes the same frame bytes with its stages overlapped across frames.
type StreamWriter struct {
	vw  *core.VideoWriter
	dev *Device
}

// NewStreamWriter creates a stream writer on a fresh 15 W device model.
func NewStreamWriter(w io.Writer, o Options) *StreamWriter {
	dev := NewDevice(Mode15W)
	return &StreamWriter{vw: core.NewVideoWriter(w, dev, o), dev: dev}
}

// NewStreamWriterOn uses a caller-supplied device model.
func NewStreamWriterOn(w io.Writer, dev *Device, o Options) *StreamWriter {
	return &StreamWriter{vw: core.NewVideoWriter(w, dev, o), dev: dev}
}

// WriteFrame encodes and appends one frame.
func (s *StreamWriter) WriteFrame(vc *PointCloud) (FrameStats, error) { return s.vw.WriteFrame(vc) }

// Close flushes the stream.
func (s *StreamWriter) Close() error { return s.vw.Close() }

// Frames returns the number of frames written so far.
func (s *StreamWriter) Frames() int { return s.vw.Frames() }

// CompressedBytes returns the compressed payload bytes written so far.
func (s *StreamWriter) CompressedBytes() int64 { return s.vw.Bytes() }

// Stats returns per-frame encode statistics.
func (s *StreamWriter) Stats() []FrameStats { return s.vw.Stats() }

// Device returns the encoder's device model.
func (s *StreamWriter) Device() *Device { return s.dev }

// StreamReader decodes a .pcv byte stream.
type StreamReader struct {
	vr  *core.VideoReader
	dev *Device
}

// NewStreamReader parses the stream header on a fresh 15 W device model.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	dev := NewDevice(Mode15W)
	vr, err := core.NewVideoReader(r, dev)
	if err != nil {
		return nil, err
	}
	return &StreamReader{vr: vr, dev: dev}, nil
}

// NewStreamReaderOn uses a caller-supplied device model.
func NewStreamReaderOn(r io.Reader, dev *Device) (*StreamReader, error) {
	vr, err := core.NewVideoReader(r, dev)
	if err != nil {
		return nil, err
	}
	return &StreamReader{vr: vr, dev: dev}, nil
}

// Options returns the stream's codec configuration.
func (s *StreamReader) Options() Options { return s.vr.Options() }

// ReadFrame decodes the next frame; io.EOF at end of stream.
func (s *StreamReader) ReadFrame() (*PointCloud, *EncodedFrame, error) { return s.vr.ReadFrame() }

// Device returns the decoder's device model.
func (s *StreamReader) Device() *Device { return s.dev }

// Compile-time interface checks.
var (
	_ = codec.Options{}
	_ = geom.VoxelCloud{}
)
