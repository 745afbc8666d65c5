package pcc

import (
	"context"
	"io"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/pcc/stream"
)

// PipelinedWriter is the concurrent counterpart of StreamWriter: frames are
// encoded through the pcc/stream pipeline, so the geometry encode of frame
// N+1 overlaps the attribute coding of frame N and the link transmission of
// frame N-1. The produced .pcv byte stream is identical to StreamWriter's —
// same frames, same order, same bits — only the wall-clock schedule differs.
//
// For link modelling, backpressure policies, multi-session serving, or a
// custom transport, use package pcc/stream directly; this wrapper covers
// the common encode-to-writer case.
type PipelinedWriter struct {
	s   *stream.Session
	col *stream.Collector
}

// NewPipelinedWriter starts a pipelined encoder writing a .pcv stream to w:
// the stream header before the first frame, then each frame's wire bytes.
func NewPipelinedWriter(w io.Writer, o Options) *PipelinedWriter {
	var hdr codec.Options
	wroteHdr := false
	s := stream.New(context.Background(), stream.Config{Options: o,
		FrameOut: func(_ context.Context, _ int, _ codec.FrameType, wire []byte) error {
			if !wroteHdr {
				if err := core.WriteStreamHeader(w, hdr); err != nil {
					return err
				}
				wroteHdr = true
			}
			_, err := w.Write(wire)
			return err
		}})
	// The header carries the options as of New: the attribute stage's rate
	// knobs rewrite the live ones once frames flow.
	hdr = s.Options()
	return &PipelinedWriter{s: s, col: stream.NewCollector(s)}
}

// WriteFrame submits one frame to the pipeline. It returns as soon as the
// ingest queue accepts the frame; encoding completes asynchronously, and
// errors surface on Close.
func (p *PipelinedWriter) WriteFrame(vc *PointCloud) error {
	return p.s.Submit(context.Background(), vc)
}

// Close drains the pipeline and returns every frame's outcome in submission
// order along with the first pipeline error, if any.
func (p *PipelinedWriter) Close() ([]stream.Result, error) {
	err := p.s.Close()
	return p.col.Wait(), err
}

// Metrics snapshots the underlying session's pipeline counters.
func (p *PipelinedWriter) Metrics() stream.Metrics { return p.s.Metrics() }

// Session exposes the underlying stream session (e.g. for Cancel).
func (p *PipelinedWriter) Session() *stream.Session { return p.s }
