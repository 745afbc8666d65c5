package pcc

import (
	"image"

	"repro/internal/capture"
	"repro/internal/linksim"
	"repro/internal/render"
)

// Stages of the paper's Fig. 1 pipeline that sit around the codec:
// capture (3D content generation), a transmission link and rendering —
// re-exported so library users can assemble the full capture → encode →
// transmit → decode → render chain.

// CaptureRig is a set of virtual RGB-D cameras imaging one subject (Fig. 1
// stage 1).
type CaptureRig = capture.Rig

// FrontalCaptureRig arranges n cameras in a frontal arc (the MVUB setup
// uses 4).
func FrontalCaptureRig(n int, gridSize uint32) CaptureRig {
	return capture.FrontalRig(n, gridSize)
}

// Link5G is a mid-band 5G uplink model (Fig. 1 stage 3): bandwidth, RTT
// and energy per byte.
var Link5G = linksim.NR5G

// RenderOptions configures the splat renderer (Fig. 1 stage 5).
type RenderOptions = render.Options

// DefaultRenderOptions renders a 512x512 frontal view.
func DefaultRenderOptions() RenderOptions { return render.DefaultOptions() }

// RenderFrame draws a frame into an RGBA image (z-buffered point splats).
func RenderFrame(vc *PointCloud, o RenderOptions) (*image.RGBA, error) {
	return render.Render(vc, o)
}
