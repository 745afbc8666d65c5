package morton

import (
	"sort"

	"repro/internal/geom"
)

// Keyed pairs a voxel with its Morton code. The compression pipelines carry
// this form around: the codes are computed once during geometry compression
// and reused for attribute compression "without any additional overhead"
// (Sec. IV-C1).
type Keyed struct {
	Code  Code
	Voxel geom.Voxel
}

// EncodeCloud computes the Morton code of every voxel in the cloud through
// the batched LUT path. The returned slice is in the cloud's original order.
func EncodeCloud(vc *geom.VoxelCloud) []Keyed {
	return EncodeCloudInto(nil, vc)
}

// Sort orders keyed voxels by Morton code ascending (stable order for equal
// codes, which occur only for duplicate voxels).
func Sort(ks []Keyed) {
	sort.SliceStable(ks, func(i, j int) bool { return ks[i].Code < ks[j].Code })
}

// IsSorted reports whether ks is in ascending Morton order.
func IsSorted(ks []Keyed) bool {
	return sort.SliceIsSorted(ks, func(i, j int) bool { return ks[i].Code < ks[j].Code })
}

// Dedup removes consecutive entries with equal codes from a sorted slice,
// keeping the first occurrence. Returns the deduplicated prefix.
func Dedup(ks []Keyed) []Keyed {
	if len(ks) == 0 {
		return ks
	}
	w := 1
	for i := 1; i < len(ks); i++ {
		if ks[i].Code != ks[w-1].Code {
			ks[w] = ks[i]
			w++
		}
	}
	return ks[:w]
}

// Codes extracts just the code column.
func Codes(ks []Keyed) []Code {
	out := make([]Code, len(ks))
	for i, k := range ks {
		out[i] = k.Code
	}
	return out
}

// Voxels extracts just the voxel column.
func Voxels(ks []Keyed) []geom.Voxel {
	out := make([]geom.Voxel, len(ks))
	for i, k := range ks {
		out[i] = k.Voxel
	}
	return out
}
