package stream

// Viewport-adaptive tile fan-out: per-viewer culling of tiled frames.
//
// The encoder publishes one tiled container per frame; the
// layout parsed at publish time (sharedFrame.layout) maps every tile's
// geometry and attribute chunk to a byte span of the immutable payload.
// A viewer with a viewport rewrites the frame for its own camera as PURE
// DROP: the container header is re-written (directory lengths zeroed for
// culled tiles) and the kept tiles' spans are gathered straight out of
// the shared payload at packetize time — no re-encode, no per-viewer
// frame materialization. Tiles fully inside the frustum ship complete;
// tiles only inside a widened "prefetch" frustum ship coarse (geometry
// only, the receiver renders them colourless until the camera settles);
// everything else is omitted. Point counts in the directory stay at the
// encoder's full values so the receiver's decoder keeps global indexing
// and conceals the missing reference ranges (see codec.RewriteHeaderSub).
//
// Determinism for NACKs: a sent-record stores the omit/coarse masks used
// at send time, so a retransmit rebuilds the identical plan from the
// cached frame layout even if the camera has moved since.

import (
	"math"

	"repro/internal/codec"
	"repro/internal/viewport"
)

// coarseMarginDeg widens the camera's cone for the coarse (geometry-only)
// band, and coarseDistScale its far plane: tiles a small head turn would
// bring into view arrive as geometry ahead of time instead of popping in.
const (
	coarseMarginDeg = 25.0
	coarseDistScale = 1.25
)

// tileMasks classifies every tile of a laid-out frame against a camera:
// bit t of omit / coarse set means tile t is dropped / shipped without
// attributes. Tiles the encoder already omitted keep their flag but take
// no mask bit (RewriteHeaderSub preserves them). When the camera sees no
// tile at all, the nearest tile to the eye is kept in full — a viewer
// looking away still receives a decodable (and re-orientable) frame.
func tileMasks(l *codec.FrameLayout, cam viewport.Camera) (omit, coarse uint64) {
	wide := cam
	if wide.FOVDegrees > 0 && wide.FOVDegrees < 360 {
		wide.FOVDegrees += 2 * coarseMarginDeg
	}
	if wide.MaxDist > 0 {
		wide.MaxDist *= coarseDistScale
	}
	anyKept := false
	for t, ti := range l.Tiles {
		if ti.Omitted() {
			continue
		}
		mn := [3]float64{float64(ti.Min[0]), float64(ti.Min[1]), float64(ti.Min[2])}
		mx := [3]float64{float64(ti.Max[0]) + 1, float64(ti.Max[1]) + 1, float64(ti.Max[2]) + 1}
		switch {
		case cam.SeesAABB(mn, mx):
			anyKept = true
		case wide.SeesAABB(mn, mx):
			coarse |= 1 << uint(t)
		default:
			omit |= 1 << uint(t)
		}
	}
	if !anyKept && omit|coarse != 0 {
		best, bestD := -1, math.Inf(1)
		for t, ti := range l.Tiles {
			if ti.Omitted() {
				continue
			}
			var d float64
			for a := 0; a < 3; a++ {
				c := (float64(ti.Min[a]) + float64(ti.Max[a]) + 1) / 2
				d += (c - cam.Pos[a]) * (c - cam.Pos[a])
			}
			if d < bestD {
				best, bestD = t, d
			}
		}
		if best >= 0 {
			keep := uint64(1) << uint(best)
			omit &^= keep
			coarse &^= keep
		}
	}
	return omit, coarse
}

// buildViewPlan assembles a viewer's plan for one published frame. wire
// is the immutable published payload; only the rewritten header is
// copied.
// sub truncates layered frames to their first sub layers (0 = keep all);
// it is ignored for unlayered frames, whose units are one layer each.
func buildViewPlan(l *codec.FrameLayout, wire []byte, omit, coarse uint64, sub uint8) *viewPlan {
	units, keep := l.LayerUnits(), 1
	if l.Layered() {
		keep = l.Layers
		if sub != 0 && int(sub) < keep {
			keep = int(sub)
		}
	}
	p := newViewPlan(1 + 2*units*keep)
	p.add(l.RewriteHeaderSub(wire, omit, coarse, sub), TileNone, LayerNone)
	// chunks adds every kept unit's first keep layers of one stream, in
	// unit order.
	chunks := func(span func([]byte, int, int) []byte, drop uint64) {
		for u := 0; u < units; u++ {
			tile := TileNone
			if len(l.Tiles) > 0 {
				if l.Tiles[u].Omitted() || drop&(1<<uint(u)) != 0 {
					continue
				}
				tile = uint16(u)
			}
			for lay := 0; lay < keep; lay++ {
				layer := LayerNone
				if l.Layered() {
					layer = uint8(lay)
				}
				p.add(span(wire, u, lay), tile, layer)
			}
		}
	}
	chunks(l.Geom, omit)
	chunks(l.Attr, omit|coarse)
	return p
}
