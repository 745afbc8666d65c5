package morton

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEncodeKnownValues(t *testing.T) {
	cases := []struct {
		x, y, z uint32
		want    Code
	}{
		{0, 0, 0, 0},
		{1, 0, 0, 1},
		{0, 1, 0, 2},
		{0, 0, 1, 4},
		{1, 1, 1, 7},
		{2, 0, 0, 8},
		{3, 3, 3, 63},
		{7, 7, 7, 511},
	}
	for _, tc := range cases {
		if got := Encode(tc.x, tc.y, tc.z); got != tc.want {
			t.Errorf("Encode(%d,%d,%d) = %d, want %d", tc.x, tc.y, tc.z, got, tc.want)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(x, y, z uint32) bool {
		x &= 0x1FFFFF
		y &= 0x1FFFFF
		z &= 0x1FFFFF
		gx, gy, gz := Encode(x, y, z).Decode()
		return gx == x && gy == y && gz == z
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestEncodeLUTMatchesMagicBits(t *testing.T) {
	f := func(x, y, z uint32) bool {
		x &= 0x1FFFFF
		y &= 0x1FFFFF
		z &= 0x1FFFFF
		return Encode(x, y, z) == EncodeLUT(x, y, z)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestChildAndParent(t *testing.T) {
	// Voxel (3,3,3) in a depth-2 tree: root child = octant of the high bit.
	c := Encode(3, 3, 3) // 63 = 0b111111
	if c.Child(0) != 7 {
		t.Errorf("Child(0) = %d, want 7", c.Child(0))
	}
	if c.Child(1) != 7 {
		t.Errorf("Child(1) = %d, want 7", c.Child(1))
	}
	if c.Parent() != Encode(1, 1, 1) {
		t.Errorf("Parent = %d, want %d", c.Parent(), Encode(1, 1, 1))
	}
	if c.AncestorAt(0) != c {
		t.Error("AncestorAt(0) must be identity")
	}
	if c.AncestorAt(2) != 0 {
		t.Errorf("AncestorAt(2) = %d, want 0", c.AncestorAt(2))
	}
}

// Morton order must preserve octant nesting: if two voxels share the same
// ancestor at level L, every code between theirs shares it too (codes with a
// common prefix form a contiguous range).
func TestCodesWithCommonAncestorAreContiguous(t *testing.T) {
	f := func(x1, y1, z1, x2, y2, z2 uint32) bool {
		a := Encode(x1&1023, y1&1023, z1&1023)
		b := Encode(x2&1023, y2&1023, z2&1023)
		if a > b {
			a, b = b, a
		}
		for level := uint(1); level <= 10; level++ {
			if a.AncestorAt(level) == b.AncestorAt(level) {
				mid := a + (b-a)/2
				if mid.AncestorAt(level) != a.AncestorAt(level) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Monotonicity along each axis: increasing one coordinate while holding the
// others increases the code.
func TestAxisMonotonicity(t *testing.T) {
	f := func(x, y, z uint32, d uint8) bool {
		x &= 0xFFFFF // leave room for +delta
		y &= 0xFFFFF
		z &= 0xFFFFF
		delta := uint32(d%15) + 1
		base := Encode(x, y, z)
		return Encode(x+delta, y, z) > base &&
			Encode(x, y+delta, z) > base &&
			Encode(x, y, z+delta) > base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestRadixSortMatchesStdSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(3000)
		a := make([]Keyed, n)
		for i := range a {
			a[i].Code = Code(rng.Uint64() & 0x7FFFFFFFFFFFFFFF)
			a[i].Voxel.X = uint32(i) // payload to verify permutation, not just keys
		}
		b := make([]Keyed, n)
		copy(b, a)
		radixSort(a, 1)
		Sort(b)
		if !IsSorted(a) {
			t.Fatal("radix sort output not sorted")
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d idx %d: radix %v != std %v", trial, i, a[i], b[i])
			}
		}
	}
}

func TestRadixSortEmptyAndSingle(t *testing.T) {
	radixSort(nil, 1)
	one := []Keyed{{Code: 42}}
	radixSort(one, 1)
	if one[0].Code != 42 {
		t.Error("single-element sort must be identity")
	}
}

func TestDedup(t *testing.T) {
	ks := []Keyed{{Code: 1}, {Code: 1}, {Code: 2}, {Code: 3}, {Code: 3}, {Code: 3}}
	got := Dedup(ks)
	if len(got) != 3 {
		t.Fatalf("Dedup len = %d, want 3", len(got))
	}
	for i, want := range []Code{1, 2, 3} {
		if got[i].Code != want {
			t.Errorf("Dedup[%d] = %d, want %d", i, got[i].Code, want)
		}
	}
	if len(Dedup(nil)) != 0 {
		t.Error("Dedup(nil) must be empty")
	}
}

func TestCodesVoxelsColumns(t *testing.T) {
	ks := []Keyed{{Code: 5}, {Code: 9}}
	ks[0].Voxel.X = 11
	cs := Codes(ks)
	vs := Voxels(ks)
	if len(cs) != 2 || cs[1] != 9 {
		t.Errorf("Codes = %v", cs)
	}
	if len(vs) != 2 || vs[0].X != 11 {
		t.Errorf("Voxels = %v", vs)
	}
}

func TestBounds(t *testing.T) {
	if _, _, ok := Bounds(nil); ok {
		t.Fatal("empty slice must report ok=false")
	}
	codes := []Code{
		Encode(5, 7, 9),
		Encode(1, 100, 3),
		Encode(50, 2, 60),
	}
	min, max, ok := Bounds(codes)
	if !ok {
		t.Fatal("non-empty slice must report ok")
	}
	if min != [3]uint32{1, 2, 3} || max != [3]uint32{50, 100, 60} {
		t.Fatalf("Bounds = %v %v", min, max)
	}
	// A single code is its own box.
	min, max, _ = Bounds(codes[:1])
	if min != [3]uint32{5, 7, 9} || min != max {
		t.Fatalf("single-code Bounds = %v %v", min, max)
	}
}

func BenchmarkEncodeMagic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Encode(uint32(i)&1023, uint32(i>>10)&1023, uint32(i>>20)&1023)
	}
}

func BenchmarkEncodeLUT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = EncodeLUT(uint32(i)&1023, uint32(i>>10)&1023, uint32(i>>20)&1023)
	}
}
