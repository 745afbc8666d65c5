package dataset

import (
	"testing"

	"repro/internal/geom"
)

func TestSparsePresetsResolve(t *testing.T) {
	for _, p := range SparsePresets() {
		s, err := SpecByName(p.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !s.LiDAR {
			t.Fatalf("%s: LiDAR flag not set", p.Name)
		}
	}
	if _, err := SpecByName("velodyne-unknown"); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestLiDARFrameDeterministicAndOnTarget(t *testing.T) {
	spec, err := SpecByName("kitti-sparse")
	if err != nil {
		t.Fatal(err)
	}
	g := NewGenerator(spec, 0.1)
	a, err := g.Frame(3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Frame(3)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("nondeterministic frame: %d vs %d voxels", a.Len(), b.Len())
	}
	for i := range a.Voxels {
		if a.Voxels[i] != b.Voxels[i] {
			t.Fatalf("voxel %d differs between identical generations", i)
		}
	}
	target := g.TargetPoints()
	if a.Len() < target/2 || a.Len() > target*2 {
		t.Fatalf("frame has %d voxels, want within 2x of target %d", a.Len(), target)
	}
	next, err := g.Frame(4)
	if err != nil {
		t.Fatal(err)
	}
	if next.Len() == 0 {
		t.Fatal("ego-motion produced an empty frame")
	}
}

// blockOccupancy measures the mean point count per occupied 64^3 macro-block
// — the "how crowded are occupied regions" statistic that separates the
// dense photogrammetry regime from automotive scans.
func blockOccupancy(vc *geom.VoxelCloud) float64 {
	blocks := map[[3]uint32]int{}
	for _, v := range vc.Voxels {
		blocks[[3]uint32{v.X >> 6, v.Y >> 6, v.Z >> 6}]++
	}
	if len(blocks) == 0 {
		return 0
	}
	return float64(vc.Len()) / float64(len(blocks))
}

// TestLiDARRegimeIsSparse pins the point of the preset: at matched scale the
// LiDAR frames occupy their blocks at least 10x more sparsely than the dense
// redandblack regime (the SparsePCGC KITTI/Ford contrast).
func TestLiDARRegimeIsSparse(t *testing.T) {
	dense, err := SpecByName("redandblack")
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := SpecByName("kitti-sparse")
	if err != nil {
		t.Fatal(err)
	}
	df, err := NewGenerator(dense, 0.1).Frame(0)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := NewGenerator(sparse, 0.1).Frame(0)
	if err != nil {
		t.Fatal(err)
	}
	do, so := blockOccupancy(df), blockOccupancy(sf)
	if so == 0 || do == 0 {
		t.Fatalf("degenerate occupancy: dense=%f sparse=%f", do, so)
	}
	if ratio := do / so; ratio < 10 {
		t.Fatalf("dense/sparse occupancy ratio %.1f, want >= 10 (dense %.1f pts/block, sparse %.1f pts/block)", ratio, do, so)
	}
}

// BenchmarkLiDARFrame generates one kitti-sparse frame at scale 0.25, the
// frame size the sparse-intra benchmark workload casts.
func BenchmarkLiDARFrame(b *testing.B) {
	spec, err := SpecByName("kitti-sparse")
	if err != nil {
		b.Fatal(err)
	}
	g := NewGenerator(spec, 0.25)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if lidarSink, err = g.Frame(7); err != nil {
			b.Fatal(err)
		}
	}
}

var lidarSink *geom.VoxelCloud
