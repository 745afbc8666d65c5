package attr

import "slices"

// SegmentBoundsIn splits n points into at most segments equal blocks and
// returns the block boundary offsets (len = blocks+1, first 0, last n) in
// dst, a reusable buffer (nil allocates). Blocks are contiguous runs in
// Morton order — the "macro blocks" of Sec. IV-C. When n < segments every
// block holds one point.
func SegmentBoundsIn(dst []int, n, segments int) []int {
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

// Median returns the lower median of vs, 0 when vs is empty (vs is not
// modified). scratch is the caller's reusable copy buffer (nil for one-shot
// use).
func Median(vs []int32, scratch *[]int32) int32 {
	if len(vs) == 0 {
		return 0
	}
	if scratch == nil {
		scratch = new([]int32)
	}
	s := append((*scratch)[:0], vs...)
	*scratch = s
	slices.Sort(s)
	return s[(len(s)-1)/2]
}

// Quantize rounds v/q half away from zero.
func Quantize(v, q int32) int32 {
	if q <= 1 {
		return v
	}
	if v >= 0 {
		return (v + q/2) / q
	}
	return -((-v + q/2) / q)
}
