package morton

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/edgesim"
)

// radixSort is SortScratch.Sort with fresh scratch on the shared pool.
func radixSort(ks []Keyed, workers int) {
	var s SortScratch
	s.Sort(edgesim.DefaultPool(), ks, workers)
}

// The one radix sort against Sort, the stdlib-stable reference, record for
// record (so stability is part of the comparison): every worker count, and
// code widths that make it skip passes — 63 bits runs all eight, 30 bits
// (a depth-10 frame) four, 24 and 8 bits an odd number, which leaves the
// result in the scratch buffer for the final copy.
func TestParallelRadixSortMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, bits := range []uint{63, 30, 24, 8} {
		for _, workers := range []int{1, 2, 3, 8, 16} {
			for _, n := range []int{0, 1, 2, 7, 100, 4096, 10001} {
				a := make([]Keyed, n)
				for i := range a {
					a[i].Code = Code(rng.Uint64() & (1<<bits - 1))
					a[i].Voxel.Y = uint32(i)
				}
				b := make([]Keyed, n)
				copy(b, a)
				radixSort(a, workers)
				Sort(b)
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("bits=%d workers=%d n=%d idx=%d: %v != %v", bits, workers, n, i, a[i], b[i])
					}
				}
			}
		}
	}
}

func TestParallelRadixSortStability(t *testing.T) {
	// Equal codes must keep input order (stability), which the scatter
	// offsets guarantee; verify via payloads. A shared high digit (1<<40)
	// with a varying one above it exercises a skipped pass between two
	// executed ones.
	a := make([]Keyed, 1000)
	for i := range a {
		a[i].Code = Code(i%7) | 1<<40 | Code(i%3)<<56
		a[i].Voxel.X = uint32(i)
	}
	radixSort(a, 4)
	for i := 1; i < len(a); i++ {
		if a[i].Code < a[i-1].Code || a[i].Code == a[i-1].Code && a[i].Voxel.X < a[i-1].Voxel.X {
			t.Fatalf("order or stability violated at %d", i)
		}
	}
}

func BenchmarkParallelRadixSort1M(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := make([]Keyed, 1<<20)
	for i := range src {
		src[i].Code = Code(rng.Uint64() & 0x7FFFFFFFFFFFFFFF)
	}
	work := make([]Keyed, len(src))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, src)
		radixSort(work, 8)
	}
}

// keysAt returns n keys of a depth-deep lattice with the input index in their
// payload: uniform codes, or, when skewed, 99 % of them in one level-c cell of
// the windowed sort.
func keysAt(rng *rand.Rand, n int, depth uint, skewed bool) []Keyed {
	ks := make([]Keyed, n)
	shift := 3 * (depth - CellLevel(depth, 2))
	for i := range ks {
		ks[i].Code = Code(rng.Uint64() & (1<<(3*depth) - 1))
		if skewed && rng.Intn(100) != 0 {
			ks[i].Code = 5<<shift | ks[i].Code&(1<<shift-1)
		}
		ks[i].Voxel.Y = uint32(i)
	}
	return ks
}

// TestSortWindowsMatchesSerial: the windowed sort is the stable reference
// Sort at every window count — on uniform keys, on keys 99 % of which share
// one cell, and with fewer keys than windows — and every window the body is
// handed is sorted, starts where the one before it ends, and shares no cell
// with it.
func TestSortWindowsMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, depth := range []uint{1, 3, 10, 21} {
		for _, skewed := range []bool{false, true} {
			for _, windows := range []int{1, 2, 3, 8, 64} {
				for _, n := range []int{0, 1, 2, 7, 63, 1000, 10001} {
					a := keysAt(rng, n, depth, skewed)
					b := slices.Clone(a)
					var s SortScratch
					got := make([][2]int, windows) // every window's range, written by its own task
					shift := 3 * (depth - CellLevel(depth, windows))
					err := s.SortWindows(edgesim.DefaultPool(), a, depth, windows, nil, func(w, lo, hi int) {
						if !IsSorted(a[lo:hi]) {
							t.Errorf("depth %d windows %d n %d: window %d unsorted", depth, windows, n, w)
						}
						got[w] = [2]int{lo, hi}
					})
					if err != nil {
						t.Fatal(err)
					}
					Sort(b)
					if !slices.Equal(a, b) {
						t.Fatalf("depth %d skewed %v windows %d n %d: not the stable order", depth, skewed, windows, n)
					}
					if n == 0 {
						continue
					}
					if got[0][0] != 0 || got[windows-1][1] != n {
						t.Fatalf("depth %d windows %d n %d: windows %v do not cover the keys", depth, windows, n, got)
					}
					for w := 1; w < windows; w++ {
						end, next := got[w-1][1], got[w][0]
						if end != next {
							t.Fatalf("windows %d n %d: a window ends at %d, the next starts at %d", windows, n, end, next)
						}
						if end > 0 && end < n && a[end-1].Code>>shift == a[end].Code>>shift {
							t.Fatalf("windows %d n %d: a cell straddles the cut at %d", windows, n, end)
						}
					}
				}
			}
		}
	}
}

// TestSortWindowsRefusesOutsideLattice: a code at or above 8^depth is an
// error, found before the window bodies run.
func TestSortWindowsRefusesOutsideLattice(t *testing.T) {
	for _, windows := range []int{1, 64} {
		ks := keysAt(rand.New(rand.NewSource(5)), 1000, 10, false)
		ks[999].Code = 1 << 30
		var s SortScratch
		err := s.SortWindows(edgesim.DefaultPool(), ks, 10, windows, nil, func(w, lo, hi int) {
			t.Errorf("window %d ran on a frame outside the lattice", w)
		})
		if !errors.Is(err, ErrLattice) {
			t.Errorf("windows %d: err = %v, want ErrLattice", windows, err)
		}
	}
}
