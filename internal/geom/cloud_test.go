package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestVoxelizeEmpty(t *testing.T) {
	if _, err := Voxelize(&Cloud{}, 10); err != ErrEmptyCloud {
		t.Fatalf("Voxelize(empty) err = %v, want ErrEmptyCloud", err)
	}
}

func TestVoxelizeDepthRange(t *testing.T) {
	c := &Cloud{Points: []Point{{X: 1}}}
	for _, d := range []uint{0, 22, 100} {
		if _, err := Voxelize(c, d); err == nil {
			t.Errorf("Voxelize depth=%d: want error", d)
		}
	}
}

func TestVoxelizeSinglePoint(t *testing.T) {
	c := &Cloud{Points: []Point{{X: 5, Y: 5, Z: 5, C: Color{1, 2, 3}}}}
	vc, err := Voxelize(c, 10)
	if err != nil {
		t.Fatal(err)
	}
	if vc.Len() != 1 {
		t.Fatalf("Len = %d, want 1", vc.Len())
	}
	if vc.Voxels[0].C != (Color{1, 2, 3}) {
		t.Errorf("colour = %v, want {1 2 3}", vc.Voxels[0].C)
	}
}

func TestVoxelizeBoundsAndValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := &Cloud{}
	for i := 0; i < 5000; i++ {
		c.Points = append(c.Points, Point{
			X: rng.Float32()*100 - 50,
			Y: rng.Float32() * 30,
			Z: rng.Float32() * 200,
			C: Color{uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256))},
		})
	}
	vc, err := Voxelize(c, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := vc.Validate(); err != nil {
		t.Fatal(err)
	}
	if vc.Len() == 0 || vc.Len() > c.Len() {
		t.Fatalf("voxel count %d out of range (0,%d]", vc.Len(), c.Len())
	}
	if vc.GridSize() != 1024 {
		t.Errorf("GridSize = %d, want 1024", vc.GridSize())
	}
}

func TestVoxelizeDeduplicates(t *testing.T) {
	// Two coincident points with different colours must merge to the mean.
	c := &Cloud{Points: []Point{
		{X: 0, Y: 0, Z: 0, C: Color{100, 0, 0}},
		{X: 0, Y: 0, Z: 0, C: Color{200, 0, 0}},
		{X: 10, Y: 10, Z: 10, C: Color{0, 50, 0}},
	}}
	vc, err := Voxelize(c, 8)
	if err != nil {
		t.Fatal(err)
	}
	if vc.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (deduplicated)", vc.Len())
	}
	if vc.Voxels[0].C.R != 150 {
		t.Errorf("merged R = %d, want 150", vc.Voxels[0].C.R)
	}
}

func TestValidateRejectsOutOfRange(t *testing.T) {
	vc := &VoxelCloud{Depth: 4, Voxels: []Voxel{{X: 16}}}
	if err := vc.Validate(); err == nil {
		t.Fatal("want validation error for out-of-lattice voxel")
	}
}

func TestCloneIsDeep(t *testing.T) {
	vc := &VoxelCloud{Depth: 4, Voxels: []Voxel{{X: 1, C: Color{9, 9, 9}}}}
	cp := vc.Clone()
	cp.Voxels[0].X = 7
	if vc.Voxels[0].X != 1 {
		t.Error("Clone must not share storage")
	}
}

func TestRawBytes(t *testing.T) {
	c := &Cloud{Points: make([]Point, 1000)}
	if c.RawBytes() != 15000 {
		t.Errorf("RawBytes = %d, want 15000", c.RawBytes())
	}
	vc := &VoxelCloud{Voxels: make([]Voxel, 4)}
	if vc.RawBytes() != 60 {
		t.Errorf("RawBytes = %d, want 60", vc.RawBytes())
	}
}

func TestToCloudRoundTrip(t *testing.T) {
	vc := &VoxelCloud{Depth: 10, Voxels: []Voxel{
		{X: 1, Y: 2, Z: 3, C: Color{4, 5, 6}},
		{X: 100, Y: 200, Z: 300, C: Color{7, 8, 9}},
	}}
	c := vc.ToCloud()
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	if c.Points[1].X != 100 || c.Points[1].C != (Color{7, 8, 9}) {
		t.Errorf("ToCloud mismatch: %+v", c.Points[1])
	}
}

func TestGridIndexNearest(t *testing.T) {
	vc := &VoxelCloud{Depth: 10}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		vc.Voxels = append(vc.Voxels, Voxel{
			X: uint32(rng.Intn(1024)), Y: uint32(rng.Intn(1024)), Z: uint32(rng.Intn(1024)),
		})
	}
	idx := NewGridIndex(vc, 5)
	// Verify against brute force for a sample of queries.
	for q := 0; q < 50; q++ {
		query := Voxel{X: uint32(rng.Intn(1024)), Y: uint32(rng.Intn(1024)), Z: uint32(rng.Intn(1024))}
		gi, gd := idx.Nearest(query)
		bd := -1.0
		for _, v := range vc.Voxels {
			d := query.Dist2(v)
			if bd < 0 || d < bd {
				bd = d
			}
		}
		if gd != bd {
			t.Fatalf("query %v: grid dist %v != brute %v (idx %d)", query, gd, bd, gi)
		}
	}
}

func TestGridIndexNearestSelf(t *testing.T) {
	vc := &VoxelCloud{Depth: 6, Voxels: []Voxel{{X: 5, Y: 5, Z: 5}, {X: 60, Y: 60, Z: 60}}}
	idx := NewGridIndex(vc, 3)
	i, d := idx.Nearest(vc.Voxels[1])
	if i != 1 || d != 0 {
		t.Errorf("Nearest(self) = (%d,%v), want (1,0)", i, d)
	}
}

func TestGridIndexEmpty(t *testing.T) {
	idx := NewGridIndex(&VoxelCloud{Depth: 4}, 2)
	if i, _ := idx.Nearest(Voxel{}); i != -1 {
		t.Errorf("Nearest on empty = %d, want -1", i)
	}
}

func TestVoxelizeRejectsNonFinite(t *testing.T) {
	nan := float32(math.NaN())
	c := &Cloud{Points: []Point{{X: nan}}}
	if _, err := Voxelize(c, 10); err == nil {
		t.Fatal("NaN coordinates must be rejected")
	}
	inf := float32(math.Inf(1))
	c = &Cloud{Points: []Point{{Y: inf}}}
	if _, err := Voxelize(c, 10); err == nil {
		t.Fatal("Inf coordinates must be rejected")
	}
}

// TestVoxelizeAllocsBounded pins that Voxelize makes no heap object per
// voxel: the accumulators live in one slice the map indexes, so only the
// map's own tables grow with the count.
func TestVoxelizeAllocsBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := &Cloud{Points: make([]Point, 20000)}
	for i := range c.Points {
		c.Points[i] = Point{X: rng.Float32() * 1000, Y: rng.Float32() * 1000, Z: rng.Float32() * 1000}
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Voxelize(c, 10); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(c.Len()) / 128; allocs > limit {
		t.Fatalf("Voxelize of %d points made %.0f allocations, want at most %.0f", c.Len(), allocs, limit)
	}
}
