package morton

import (
	"math/rand"
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
