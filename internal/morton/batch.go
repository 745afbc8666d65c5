package morton

import (
	"repro/internal/edgesim"
	"repro/internal/geom"
)

// Slab (batch) Morton paths. Every pipeline stage consumes codes in bulk —
// octree build, sort keying, interframe lookup, code→voxel expansion — so
// these entry points process whole coordinate slices with the byte-wise LUT
// spread inlined in the loop, instead of a per-point call through Encode.
// The codes are identical to Encode/EncodeLUT (the differential tests pin
// this), so swapping a call site is byte-inert for every stream format.

// lut11 spreads an 11-bit chunk (2048 x 8 B = 16 KB, initialized from the
// canonical part1By2). Two lookups cover a full 21-bit coordinate — the
// fewest table hits per coordinate that still keeps the table L1/L2-sized,
// and measurably faster than both the byte-wise LUT (3 hits) and the inline
// magic-bits sequence in the slab loops.
var lut11 [2048]uint64

func init() {
	for i := range lut11 {
		lut11[i] = part1By2(uint64(i))
	}
}

// lutSpread3 interleaves one coordinate via two LUT lookups (bits 0-10 and
// 11-20; Encode masks to 21 bits, so higher bits are ignored identically).
func lutSpread3(v uint32) uint64 {
	return lut11[v&0x7FF] | lut11[v>>11&0x3FF]<<33
}

// EncodeBatch fills dst[i] = Encode(xs[i], ys[i], zs[i]) over the whole
// slab using the LUT path. All four slices must have equal length. When
// pool is non-nil the slab is chunk-parallelized over the kernel worker
// pool; pass nil from inside a kernel body (pool tasks must stay leaves).
func EncodeBatch(pool *edgesim.Pool, dst []Code, xs, ys, zs []uint32) {
	body := func(lo, hi int) {
		encodeRange(dst[lo:hi], xs[lo:hi], ys[lo:hi], zs[lo:hi])
	}
	if pool != nil {
		pool.Ranges(pool.Workers(), len(dst), body)
		return
	}
	body(0, len(dst))
}

func encodeRange(dst []Code, xs, ys, zs []uint32) {
	if len(dst) == 0 {
		return
	}
	_ = xs[len(dst)-1]
	_ = ys[len(dst)-1]
	_ = zs[len(dst)-1]
	for i := range dst {
		dst[i] = Code(lutSpread3(xs[i]) | lutSpread3(ys[i])<<1 | lutSpread3(zs[i])<<2)
	}
}

// DecodeBatch splits codes[i] into xs[i], ys[i], zs[i] over the whole slab.
// All four slices must have equal length. When pool is non-nil the slab is
// chunk-parallelized; pass nil from inside a kernel body.
func DecodeBatch(pool *edgesim.Pool, codes []Code, xs, ys, zs []uint32) {
	body := func(lo, hi int) {
		decodeRange(codes[lo:hi], xs[lo:hi], ys[lo:hi], zs[lo:hi])
	}
	if pool != nil {
		pool.Ranges(pool.Workers(), len(codes), body)
		return
	}
	body(0, len(codes))
}

func decodeRange(codes []Code, xs, ys, zs []uint32) {
	if len(codes) == 0 {
		return
	}
	_ = xs[len(codes)-1]
	_ = ys[len(codes)-1]
	_ = zs[len(codes)-1]
	for i, c := range codes {
		xs[i] = uint32(compact1By2(uint64(c)))
		ys[i] = uint32(compact1By2(uint64(c) >> 1))
		zs[i] = uint32(compact1By2(uint64(c) >> 2))
	}
}

// EncodeKeyed fills dst[i] = {Code(vs[i]), vs[i]} for a voxel slab (LUT
// path, serial). Kernel bodies hand it their [start, end) range so the
// parallel decomposition stays with the launching kernel.
func EncodeKeyed(dst []Keyed, vs []geom.Voxel) {
	if len(vs) == 0 {
		return
	}
	_ = dst[len(vs)-1]
	for i, v := range vs {
		dst[i] = Keyed{
			Code:  Code(lutSpread3(v.X) | lutSpread3(v.Y)<<1 | lutSpread3(v.Z)<<2),
			Voxel: v,
		}
	}
}

// KeyVoxels fills ks[i].Code from ks[i].Voxel (LUT path, serial): EncodeKeyed
// for voxels already in place.
func KeyVoxels(ks []Keyed) {
	for i := range ks {
		v := &ks[i].Voxel
		ks[i].Code = Code(lutSpread3(v.X) | lutSpread3(v.Y)<<1 | lutSpread3(v.Z)<<2)
	}
}

// EncodeVoxels fills dst[i] = Code(vs[i]) for a voxel slab (LUT path,
// serial) — the code-column-only sibling of EncodeKeyed.
func EncodeVoxels(dst []Code, vs []geom.Voxel) {
	if len(vs) == 0 {
		return
	}
	_ = dst[len(vs)-1]
	for i, v := range vs {
		dst[i] = Code(lutSpread3(v.X) | lutSpread3(v.Y)<<1 | lutSpread3(v.Z)<<2)
	}
}

// DecodeVoxels fills dst[i] with the coordinates of codes[i] (colors are
// left zero), the slab form of Code.Decode for code→voxel expansion.
func DecodeVoxels(dst []geom.Voxel, codes []Code) {
	if len(codes) == 0 {
		return
	}
	_ = dst[len(codes)-1]
	for i, c := range codes {
		dst[i] = geom.Voxel{
			X: uint32(compact1By2(uint64(c))),
			Y: uint32(compact1By2(uint64(c) >> 1)),
			Z: uint32(compact1By2(uint64(c) >> 2)),
		}
	}
}

// EncodeCloudInto is EncodeCloud writing into a reusable buffer: the whole
// cloud is keyed through the batched LUT path in one slab.
func EncodeCloudInto(dst []Keyed, vc *geom.VoxelCloud) []Keyed {
	if cap(dst) < len(vc.Voxels) {
		dst = make([]Keyed, len(vc.Voxels))
	} else {
		dst = dst[:len(vc.Voxels)]
	}
	if len(dst) > 0 {
		EncodeKeyed(dst, vc.Voxels)
	}
	return dst
}
