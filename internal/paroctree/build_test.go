package paroctree

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/edgesim"
	"repro/internal/geom"
	"repro/internal/morton"
	"repro/internal/octree"
)

func dev() *edgesim.Device { return edgesim.NewXavier(edgesim.Mode15W) }

func randomCloud(seed int64, n int, depth uint) *geom.VoxelCloud {
	rng := rand.New(rand.NewSource(seed))
	limit := int(uint32(1) << depth)
	vc := &geom.VoxelCloud{Depth: depth}
	for i := 0; i < n; i++ {
		vc.Voxels = append(vc.Voxels, geom.Voxel{
			X: uint32(rng.Intn(limit)),
			Y: uint32(rng.Intn(limit)),
			Z: uint32(rng.Intn(limit)),
			C: geom.Color{R: uint8(i), G: uint8(i >> 8), B: 3},
		})
	}
	return vc
}

func TestBuildEmpty(t *testing.T) {
	if _, err := Build(dev(), &geom.VoxelCloud{Depth: 10}); err != ErrNoPoints {
		t.Fatalf("err = %v, want ErrNoPoints", err)
	}
}

func TestBuildSinglePoint(t *testing.T) {
	vc := &geom.VoxelCloud{Depth: 3, Voxels: []geom.Voxel{{X: 3, Y: 3, Z: 3}}}
	res, err := Build(dev(), vc)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Tree
	if tr.NumLeaves != 1 {
		t.Fatalf("NumLeaves = %d", tr.NumLeaves)
	}
	// Depth 3, single point: one node per level, each the leaf's ancestor,
	// each internal node with exactly the one child's octant set.
	leaf := morton.Encode(3, 3, 3)
	for d := uint(0); d <= 3; d++ {
		codes, masks := tr.Level(d)
		if want := leaf >> (3 * (3 - d)); len(codes) != 1 || codes[0] != want {
			t.Fatalf("level %d codes = %v, want [%d]", d, codes, want)
		}
		if d == 3 {
			if masks != nil {
				t.Fatalf("leaf level carries masks %v", masks)
			}
			continue
		}
		if want := byte(1) << (leaf >> (3 * (2 - d)) & 7); len(masks) != 1 || masks[0] != want {
			t.Fatalf("level %d masks = %08b, want %08b", d, masks, want)
		}
	}
	if tr.Leaves()[0] != leaf {
		t.Fatalf("leaf code = %d", tr.Leaves()[0])
	}
}

// The Fig. 5 worked example: P0, P1 at the low corner and P2=(3,3,3) in a
// side-8 cube (depth 3), with x offset by +1 into the unsigned lattice:
// P0=(1,0,0), P1=(0,0,0), P2=(4,3,3). The build emits Fig. 5's code array
// per level; Algorithm 1's occupy bits merge the children of each node.
func TestFig5Example(t *testing.T) {
	vc := &geom.VoxelCloud{Depth: 3, Voxels: []geom.Voxel{
		{X: 1, Y: 0, Z: 0}, // P0
		{X: 0, Y: 0, Z: 0}, // P1
		{X: 4, Y: 3, Z: 3}, // P2
	}}
	res, err := Build(dev(), vc)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Tree
	if tr.NumLeaves != 3 {
		t.Fatalf("NumLeaves = %d", tr.NumLeaves)
	}
	// Sorted order: P1 (code 0), P0 (code 1), P2. P0/P1 share every
	// ancestor; P2 sits in root octant 1 (x >= 4).
	p2 := morton.Encode(4, 3, 3)
	wantCodes := [][]morton.Code{{0}, {0, p2 >> 6}, {0, p2 >> 3}, {0, 1, p2}}
	wantMasks := [][]byte{
		{1<<0 | 1<<(p2>>6&7)},
		{1 << 0, 1 << (p2 >> 3 & 7)},
		{1<<0 | 1<<1, 1 << (p2 & 7)},
	}
	if got := tr.LevelNodes(); len(got) != 4 {
		t.Fatalf("LevelNodes = %v", got)
	}
	for d := uint(0); d <= 3; d++ {
		codes, masks := tr.Level(d)
		if !slices.Equal(codes, wantCodes[d]) {
			t.Fatalf("level %d codes = %v, want %v", d, codes, wantCodes[d])
		}
		if d < 3 && !bytes.Equal(masks, wantMasks[d]) {
			t.Fatalf("level %d occupy bits = %08b, want %08b", d, masks, wantMasks[d])
		}
		if d == 0 {
			continue
		}
		// Parent of a depth-d node = the depth-(d-1) node whose code is its
		// own >> 3, and that node's mask has the child's octant bit.
		up, upMasks := tr.Level(d - 1)
		for _, c := range codes {
			i, ok := slices.BinarySearch(up, c.Parent())
			if !ok {
				t.Fatalf("level %d node %d has no parent at level %d", d, c, d-1)
			}
			if upMasks[i]>>(c&7)&1 == 0 {
				t.Fatalf("level %d node %d missing from its parent's occupy bits", d, c)
			}
		}
	}
}

// One sweep, one depth check: the untiled builder refuses what the tile
// sweep refuses (it used to accept depth 0 and 22 and ship a stream the
// container reader rejects).
func TestBuildDepthRange(t *testing.T) {
	for _, depth := range []uint{0, 22} {
		vc := &geom.VoxelCloud{Depth: depth, Voxels: []geom.Voxel{{X: 0}}}
		if _, err := Build(dev(), vc); err == nil {
			t.Errorf("Build at depth %d must fail", depth)
		}
		if _, err := BuildWith(dev(), vc, new(BuildScratch)); err == nil {
			t.Errorf("BuildWith at depth %d must fail", depth)
		}
	}
}

func TestParallelMatchesSequentialOctree(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		vc := randomCloud(seed, 2000, 7)
		res, err := Build(dev(), vc)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := octree.Build(vc)
		if err != nil {
			t.Fatal(err)
		}
		// Same node counts at every level.
		got := res.Tree.LevelNodes()
		want := seq.CountLevels()
		for d := range want {
			if got[d] != want[d] {
				t.Fatalf("seed %d level %d: parallel %d != sequential %d", seed, d, got[d], want[d])
			}
		}
		// Same leaf sets.
		seqVox, err := octree.Deserialize(seq.Serialize(), vc.Depth)
		if err != nil {
			t.Fatal(err)
		}
		leaves := res.Tree.Leaves()
		if len(seqVox) != len(leaves) {
			t.Fatalf("leaf count %d != %d", len(leaves), len(seqVox))
		}
		for i, v := range seqVox {
			if morton.Encode(v.X, v.Y, v.Z) != leaves[i] {
				t.Fatalf("leaf %d differs", i)
			}
		}
	}
}

func TestSerializeDeserializeRoundTrip(t *testing.T) {
	d := dev()
	vc := randomCloud(5, 3000, 8)
	res, err := Build(d, vc)
	if err != nil {
		t.Fatal(err)
	}
	stream := res.Tree.Serialize(d)
	codes, err := Deserialize(d, stream, vc.Depth)
	if err != nil {
		t.Fatal(err)
	}
	leaves := res.Tree.Leaves()
	if len(codes) != len(leaves) {
		t.Fatalf("decoded %d leaves, want %d", len(codes), len(leaves))
	}
	for i := range codes {
		if codes[i] != leaves[i] {
			t.Fatalf("leaf %d: %d != %d", i, codes[i], leaves[i])
		}
	}
}

func TestDeserializeErrors(t *testing.T) {
	d := dev()
	if _, err := Deserialize(d, []byte{1}, 0); err == nil {
		t.Error("bad depth must fail")
	}
	if _, err := Deserialize(d, []byte{1, 1}, 3); err == nil {
		t.Error("truncated stream must fail")
	}
	if _, err := Deserialize(d, []byte{0}, 2); err == nil {
		t.Error("zero mask must fail")
	}
	got, err := Deserialize(d, nil, 4)
	if err != nil || got != nil {
		t.Errorf("empty stream: %v %v", got, err)
	}
	// Trailing bytes.
	vc := &geom.VoxelCloud{Depth: 1, Voxels: []geom.Voxel{{X: 0}}}
	res, _ := Build(d, vc)
	s := append(res.Tree.Serialize(d), 9)
	if _, err := Deserialize(d, s, 1); err == nil {
		t.Error("trailing bytes must fail")
	}
}

func TestBuildRejectsUnsortedInternal(t *testing.T) {
	var tr Tree
	if err := tr.sweep([]morton.Code{5, 3}, 4, 0); err == nil {
		t.Error("unsorted leaves must fail")
	}
	if err := tr.sweep([]morton.Code{3, 3}, 4, 0); err == nil {
		t.Error("duplicate leaves must fail")
	}
	if err := tr.sweep([]morton.Code{1 << 12}, 4, 0); err == nil {
		t.Error("a code outside the depth-4 lattice must fail")
	}
}

func TestBuildDeduplicatesInput(t *testing.T) {
	vc := &geom.VoxelCloud{Depth: 4, Voxels: []geom.Voxel{
		{X: 1, Y: 1, Z: 1}, {X: 1, Y: 1, Z: 1}, {X: 2, Y: 2, Z: 2},
	}}
	res, err := Build(dev(), vc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tree.NumLeaves != 2 {
		t.Fatalf("NumLeaves = %d, want 2", res.Tree.NumLeaves)
	}
	if len(res.Sorted) != 2 {
		t.Fatalf("Sorted len = %d, want 2", len(res.Sorted))
	}
}

func TestRoundTripProperty(t *testing.T) {
	d := dev()
	f := func(raw [][3]uint16) bool {
		if len(raw) == 0 {
			return true
		}
		const depth = 5
		vc := &geom.VoxelCloud{Depth: depth}
		want := map[morton.Code]bool{}
		for _, r := range raw {
			v := geom.Voxel{X: uint32(r[0] & 31), Y: uint32(r[1] & 31), Z: uint32(r[2] & 31)}
			vc.Voxels = append(vc.Voxels, v)
			want[morton.Encode(v.X, v.Y, v.Z)] = true
		}
		res, err := Build(d, vc)
		if err != nil {
			return false
		}
		codes, err := Deserialize(d, res.Tree.Serialize(d), depth)
		if err != nil {
			return false
		}
		if len(codes) != len(want) {
			return false
		}
		for _, c := range codes {
			if !want[c] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRescaleRoundTripSmallError(t *testing.T) {
	vc := randomCloud(8, 500, 10)
	// Constrain to a sub-box so rescale actually stretches.
	for i := range vc.Voxels {
		vc.Voxels[i].X = vc.Voxels[i].X%300 + 50
		vc.Voxels[i].Y = vc.Voxels[i].Y%700 + 10
		vc.Voxels[i].Z = vc.Voxels[i].Z%200 + 400
	}
	r := FitRescale(vc)
	maxErr := 0.0
	for _, v := range vc.Voxels {
		back := r.Invert(r.Apply(v))
		if d := v.Dist2(back); d > maxErr {
			maxErr = d
		}
	}
	// Sub-voxel error: squared distance at most 3 (one unit per axis).
	if maxErr > 3 {
		t.Fatalf("rescale max squared error = %v, want <= 3", maxErr)
	}
}

func TestRescaleKeepsLatticeBounds(t *testing.T) {
	f := func(coords [][3]uint16) bool {
		if len(coords) == 0 {
			return true
		}
		vc := &geom.VoxelCloud{Depth: 10}
		for _, c := range coords {
			vc.Voxels = append(vc.Voxels, geom.Voxel{
				X: uint32(c[0] & 1023), Y: uint32(c[1] & 1023), Z: uint32(c[2] & 1023)})
		}
		r := FitRescale(vc)
		for _, v := range vc.Voxels {
			a := r.Apply(v)
			if a.X > 1023 || a.Y > 1023 || a.Z > 1023 {
				return false
			}
			b := r.Invert(a)
			if b.X > 1023 || b.Y > 1023 || b.Z > 1023 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestInvertReciprocalExact: the multiply-by-reciprocal inverse is the
// division it replaces, mn + (c<<16 + scale/2) / scale, for every coordinate
// a 21-bit lattice holds and for the largest a voxel can carry, over the
// scales where the quotient, the reciprocal or the rounding term sit at an
// edge, and over random ones.
func TestInvertReciprocalExact(t *testing.T) {
	scales := []uint64{1, 2, 3, 65535, 65536, 65537, 1 << 26, 1 << 40, 1<<63 - 1, 1<<64 - 1}
	rng := rand.New(rand.NewSource(21))
	for len(scales) < 312 {
		scales = append(scales, rng.Uint64()>>uint(rng.Intn(64))|1)
	}
	const mn = 7
	for ; len(scales) > 0; scales = scales[3:] { // one scale per axis
		s := scales[:3]
		inv := Rescale{MinX: mn, MinY: mn, MinZ: mn, ScaleX: s[0], ScaleY: s[1], ScaleZ: s[2]}.Inverter()
		check := func(c uint32) {
			x, y, z := inv.Invert(c, c, c)
			for a, got := range []uint32{x, y, z} {
				if want := mn + uint32((uint64(c)<<16+s[a]/2)/s[a]); got != want {
					t.Fatalf("scale %d, coordinate %d: inverse %d, division gives %d", s[a], c, got, want)
				}
			}
		}
		for c := uint32(0); c < 1<<21; c++ {
			check(c)
		}
		check(1<<32 - 1)
	}
}

func TestGeometrySimLatencyShape(t *testing.T) {
	// The parallel geometry pipeline must be dramatically faster in
	// simulated time than the sequential baseline at the same N — the
	// paper reports ~37x at ~0.8M points; at 50k points we accept >5x.
	vc := randomCloud(4, 50000, 10)

	dPar := dev()
	if _, err := Build(dPar, vc); err != nil {
		t.Fatal(err)
	}
	parTime := dPar.SimTime()

	dSeq := dev()
	dSeq.CPUSerial("OctreeConstruct", vc.Len()*int(vc.Depth), edgesim.Cost{OpsPerItem: 170}, func() {
		if _, err := octree.Build(vc); err != nil {
			t.Fatal(err)
		}
	})
	seqTime := dSeq.SimTime()

	if ratio := float64(seqTime) / float64(parTime); ratio < 5 {
		t.Fatalf("parallel speedup = %.1fx, want >= 5x (seq %v, par %v)", ratio, seqTime, parTime)
	}
}

// TestGeometryLedgerPinned pins the accounting layer: for one fixed cloud
// (5000 random depth-8 voxels plus 100 duplicates) the ledger of Build +
// Serialize, Deserialize and DeserializeLoD is the table captured at the
// commit before the sweep and the expander were fused — same kernels, same
// launch counts and order, same items, ops, bytes and simulated time.
func TestGeometryLedgerPinned(t *testing.T) {
	type row struct {
		name, stage string
		launches    int
		items       int64
		ops, bytes  float64
		simNs       int64
	}
	check := func(what string, d *edgesim.Device, want []row) {
		t.Helper()
		var got []row
		for _, k := range d.Kernels() {
			got = append(got, row{k.Name, k.Stage, k.Launches, k.Items, k.Ops, k.Bytes, int64(k.SimTime)})
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s ledger:\n got %v\nwant %v", what, got, want)
		}
	}
	vc := randomCloud(7, 5000, 8)
	vc.Voxels = append(vc.Voxels, vc.Voxels[:100]...)

	d := dev()
	d.BeginStage("geometry")
	br, err := Build(d, vc)
	if err != nil {
		t.Fatal(err)
	}
	stream := br.Tree.Serialize(d)
	d.EndStage()
	check("Build+Serialize", d, []row{
		{"MortonGen", "geometry", 1, 5100, 61200, 81600, 23064},
		{"RadixSort", "geometry", 1, 5100, 2.8152e+06, 1.3056e+06, 160985},
		{"Dedup", "geometry", 1, 5100, 45900, 81600, 22298},
		{"LevelFlag", "geometry", 8, 23052, 138312, 184416, 166923},
		{"LevelCompact", "geometry", 8, 23052, 6.662028e+06, 553248, 493632},
		{"ParentLink", "geometry", 8, 23052, 92208, 184416, 164613},
		{"OccupyBits", "geometry", 1, 23052, 1.060392e+06, 207468, 73104},
		{"OccupyPack", "geometry", 1, 23053, 806855, 46106, 60407},
		{"SerializePack", "geometry", 1, 18054, 631890, 36108, 51645},
	})
	if d.SimTime() != 1216671 || len(stream) != 18054 {
		t.Errorf("sim time %d ns over %d stream bytes, want 1216671 ns over 18054", d.SimTime(), len(stream))
	}

	d = dev()
	if _, err := Deserialize(d, stream, vc.Depth); err != nil {
		t.Fatal(err)
	}
	check("Deserialize", d, []row{
		{"DecodeScan", "", 1, 18054, 451350, 36108, 451350},
		{"DecodeExpand", "", 8, 18054, 541620, 180540, 187122},
	})

	d = dev()
	if _, err := DeserializeLoD(d, stream, vc.Depth, 5); err != nil {
		t.Fatal(err)
	}
	check("DeserializeLoD(5)", d, []row{
		{"DecodeExpand", "", 5, 3464, 103920, 34640, 105203},
	})
}

func BenchmarkParallelBuild100K(b *testing.B) {
	vc := randomCloud(1, 100000, 10)
	d := dev()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(d, vc); err != nil {
			b.Fatal(err)
		}
	}
}
