package codec

import (
	"slices"
	"testing"

	"repro/internal/geom"
)

// TestEncodeRefusesHostileGeometry: what the geometry phase cannot code is an
// error from EncodeFrame at any window count, never a panic — a lossless
// voxel outside the 2^depth lattice, and depths 0 and 22 — untiled or tiled,
// lossless or rescaled.
func TestEncodeRefusesHostileGeometry(t *testing.T) {
	base := frames(t, 1)[0]
	outside := &geom.VoxelCloud{Depth: base.Depth, Voxels: slices.Clone(base.Voxels)}
	outside.Voxels[len(outside.Voxels)/2].Y = 1 << base.Depth
	cases := map[string]*geom.VoxelCloud{
		"voxel outside the lattice": outside,
		"depth 0":                   {Depth: 0, Voxels: base.Voxels},
		"depth 22":                  {Depth: 22, Voxels: base.Voxels},
	}
	for name, vc := range cases {
		for _, tiles := range []int{0, 4} {
			for _, lossless := range []bool{true, false} {
				if name == "voxel outside the lattice" && !lossless {
					continue // the rescale fits every voxel into the lattice
				}
				for _, windows := range []int{1, 64} {
					opts := scaledOpts(IntraInterV1, base.Len())
					opts.Tiles, opts.Lossless = tiles, lossless
					enc := NewEncoder(dev(), opts)
					enc.windows = windows
					func() {
						defer func() {
							if r := recover(); r != nil {
								t.Errorf("%s, tiles %d, lossless %v, %d windows: panic %v", name, tiles, lossless, windows, r)
							}
						}()
						if _, _, err := enc.EncodeFrame(vc); err == nil {
							t.Errorf("%s, tiles %d, lossless %v, %d windows: encoded", name, tiles, lossless, windows)
						}
					}()
				}
			}
		}
	}
}
