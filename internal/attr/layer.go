package attr

import (
	"slices"
	"sync"
)

// SegmentBounds splits n points into at most segments equal blocks and
// returns the block boundary offsets (len = blocks+1, first 0, last n).
// Blocks are contiguous runs in Morton order — the "macro blocks" of
// Sec. IV-C. When n < segments every block holds one point.
func SegmentBounds(n, segments int) []int {
	return segmentBoundsIn(nil, n, segments)
}

// SegmentBoundsIn is SegmentBounds into a reusable buffer.
func SegmentBoundsIn(dst []int, n, segments int) []int {
	return segmentBoundsIn(dst, n, segments)
}

// segmentBoundsIn is SegmentBounds into a reusable buffer.
func segmentBoundsIn(dst []int, n, segments int) []int {
	if n <= 0 {
		dst = grow(dst, 1)
		dst[0] = 0
		return dst
	}
	if segments < 1 {
		segments = 1
	}
	if segments > n {
		segments = n
	}
	dst = grow(dst, segments+1)
	for i := 0; i <= segments; i++ {
		dst[i] = i * n / segments
	}
	return dst
}

// medianScratch pools the per-worker copy buffer of medianOf: kernel chunks
// run concurrently on the worker pool, and pooling keeps the steady state
// allocation-free without tying buffers to a worker count.
var medianScratch = sync.Pool{New: func() any { return new([]int32) }}

// medianOf returns the lower median of vs (vs is not modified). scratch is
// the caller's reusable copy buffer (nil for one-shot use).
func medianOf(vs []int32, scratch *[]int32) int32 {
	if scratch == nil {
		scratch = new([]int32)
	}
	s := append((*scratch)[:0], vs...)
	*scratch = s
	slices.Sort(s)
	return s[(len(s)-1)/2]
}

// layerData is one encoded Base+Deltas layer for a single channel.
type layerData struct {
	bases []int32 // one per segment (the "Mid" values)
	qd    []int32 // one quantized delta per point
}

// encodeLayer computes Base+Deltas over values with the given segmentation
// and quantization step: base = median(segment), qd = round((v-base)/q).
// Residuals are quantized symmetrically (round half away from zero).
func encodeLayer(values []int32, bounds []int, q int32) layerData {
	nSeg := len(bounds) - 1
	out := layerData{bases: make([]int32, nSeg), qd: make([]int32, len(values))}
	encodeLayerRange(values, bounds, q, &out, 0, nSeg)
	return out
}

// encodeLayerRange is the per-segment body of encodeLayer, exported to the
// device kernels so segments can be processed in parallel.
func encodeLayerRange(values []int32, bounds []int, q int32, out *layerData, segLo, segHi int) {
	scratch := medianScratch.Get().(*[]int32)
	for s := segLo; s < segHi; s++ {
		lo, hi := bounds[s], bounds[s+1]
		if lo == hi {
			continue
		}
		base := medianOf(values[lo:hi], scratch)
		out.bases[s] = base
		for i := lo; i < hi; i++ {
			out.qd[i] = quantize(values[i]-base, q)
		}
	}
	medianScratch.Put(scratch)
}

// quantize rounds v/q half away from zero.
func quantize(v, q int32) int32 {
	if q <= 1 {
		return v
	}
	if v >= 0 {
		return (v + q/2) / q
	}
	return -((-v + q/2) / q)
}
