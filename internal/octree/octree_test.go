package octree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/morton"
)

func randomCloud(seed int64, n int, depth uint) *geom.VoxelCloud {
	rng := rand.New(rand.NewSource(seed))
	limit := int(uint32(1) << depth)
	seen := map[[3]uint32]bool{}
	vc := &geom.VoxelCloud{Depth: depth}
	for len(vc.Voxels) < n {
		v := geom.Voxel{
			X: uint32(rng.Intn(limit)),
			Y: uint32(rng.Intn(limit)),
			Z: uint32(rng.Intn(limit)),
		}
		k := [3]uint32{v.X, v.Y, v.Z}
		if seen[k] {
			continue
		}
		seen[k] = true
		vc.Voxels = append(vc.Voxels, v)
	}
	return vc
}

func TestNewTreeValidation(t *testing.T) {
	for _, d := range []uint{0, 22} {
		if _, err := NewTree(d); err == nil {
			t.Errorf("NewTree(%d): want error", d)
		}
	}
	if _, err := NewTree(10); err != nil {
		t.Fatal(err)
	}
}

func TestInsertCountsAndDuplicates(t *testing.T) {
	tr, _ := NewTree(4)
	if !tr.Insert(1, 2, 3) {
		t.Fatal("first insert must create")
	}
	if tr.Insert(1, 2, 3) {
		t.Fatal("duplicate insert must not create")
	}
	if tr.NumPoints != 1 {
		t.Fatalf("NumPoints = %d, want 1", tr.NumPoints)
	}
	// Depth 4: root + 4 levels = 5 nodes for a single point.
	if tr.NumNodes != 5 {
		t.Fatalf("NumNodes = %d, want 5", tr.NumNodes)
	}
}

func TestLevelNodesMatchesTraversal(t *testing.T) {
	vc := randomCloud(11, 500, 6)
	tr, err := Build(vc)
	if err != nil {
		t.Fatal(err)
	}
	counts := tr.CountLevels()
	for l, want := range counts {
		if tr.LevelNodes[l] != want {
			t.Errorf("level %d: incremental %d != traversal %d", l, tr.LevelNodes[l], want)
		}
	}
	if counts[len(counts)-1] != vc.Len() {
		t.Errorf("leaf count %d != point count %d", counts[len(counts)-1], vc.Len())
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	vc := randomCloud(3, 1000, 8)
	tr, err := Build(vc)
	if err != nil {
		t.Fatal(err)
	}
	stream := tr.Serialize()
	if len(stream) != tr.NumNodes-vc.Len() {
		t.Fatalf("stream bytes %d != internal nodes %d", len(stream), tr.NumNodes-vc.Len())
	}
	got, err := Deserialize(stream, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != vc.Len() {
		t.Fatalf("decoded %d voxels, want %d", len(got), vc.Len())
	}
	// Decoded set must equal the input set (order differs: DFS/Morton).
	want := map[[3]uint32]bool{}
	for _, v := range vc.Voxels {
		want[[3]uint32{v.X, v.Y, v.Z}] = true
	}
	for _, v := range got {
		if !want[[3]uint32{v.X, v.Y, v.Z}] {
			t.Fatalf("decoded unexpected voxel %v", v)
		}
	}
}

func TestDeserializeOrderIsMorton(t *testing.T) {
	vc := randomCloud(9, 300, 7)
	tr, _ := Build(vc)
	got, err := Deserialize(tr.Serialize(), 7)
	if err != nil {
		t.Fatal(err)
	}
	codes := make([]uint64, len(got))
	for i, v := range got {
		codes[i] = uint64(morton.Encode(v.X, v.Y, v.Z))
	}
	if !sort.SliceIsSorted(codes, func(i, j int) bool { return codes[i] < codes[j] }) {
		t.Fatal("DFS decode order is not Morton order")
	}
}

func TestDeserializeErrors(t *testing.T) {
	if _, err := Deserialize([]byte{1, 1}, 3); err == nil {
		t.Error("truncated stream must fail")
	}
	if _, err := Deserialize([]byte{0}, 3); err == nil {
		t.Error("zero-occupancy internal node must fail")
	}
	if _, err := Deserialize([]byte{1}, 0); err == nil {
		t.Error("bad depth must fail")
	}
	// Trailing garbage after a complete tree.
	tr, _ := NewTree(1)
	tr.Insert(0, 0, 0)
	s := append(tr.Serialize(), 0xFF)
	if _, err := Deserialize(s, 1); err == nil {
		t.Error("trailing bytes must fail")
	}
	// Empty stream decodes to an empty set.
	got, err := Deserialize(nil, 5)
	if err != nil || len(got) != 0 {
		t.Errorf("empty stream: %v, %v", got, err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(raw [][3]uint16) bool {
		const depth = 6
		tr, _ := NewTree(depth)
		want := map[[3]uint32]bool{}
		for _, r := range raw {
			x, y, z := uint32(r[0]&63), uint32(r[1]&63), uint32(r[2]&63)
			tr.Insert(x, y, z)
			want[[3]uint32{x, y, z}] = true
		}
		got, err := Deserialize(tr.Serialize(), depth)
		if err != nil {
			return len(want) == 0
		}
		if len(got) != len(want) {
			return false
		}
		for _, v := range got {
			if !want[[3]uint32{v.X, v.Y, v.Z}] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestOccupancy(t *testing.T) {
	n := &Node{}
	if n.Occupancy() != 0 {
		t.Error("empty node occupancy must be 0")
	}
	n.Children[0] = &Node{}
	n.Children[7] = &Node{}
	if n.Occupancy() != 0x81 {
		t.Errorf("occupancy = %#x, want 0x81", n.Occupancy())
	}
}

func BenchmarkSequentialBuild100K(b *testing.B) {
	vc := randomCloud(1, 100000, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(vc); err != nil {
			b.Fatal(err)
		}
	}
}
