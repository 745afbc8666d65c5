package morton

import "repro/internal/edgesim"

// Data-parallel LSD radix sort over Morton codes, 8-bit digits: the same
// histogram → exclusive-scan → scatter structure a GPU sort uses. Each pass
// splits the input into one chunk per worker; workers build local digit
// histograms in parallel, a serial scan turns them into disjoint scatter
// offsets (stable across chunks), and workers scatter in parallel into
// disjoint regions. The result is identical to the stable reference Sort.
//
// The phases run on the persistent edgesim worker pool (channel wake, not
// goroutine spawn), and every buffer lives in a reusable SortScratch so
// steady-state sorting allocates nothing.

// SortScratch holds the reusable buffers of the parallel radix sort. The
// zero value is ready to use; buffers grow to the largest frame sorted and
// are reused across frames.
type SortScratch struct {
	buf     []Keyed
	hist    [][256]int
	offsets [][256]int
}

func (s *SortScratch) ensure(n, nw int) {
	if cap(s.buf) < n {
		s.buf = make([]Keyed, n)
	}
	s.buf = s.buf[:n]
	if len(s.hist) < nw {
		s.hist = make([][256]int, nw)
		s.offsets = make([][256]int, nw)
	}
}

// Sort sorts ks by Morton code on the pool's workers, reusing the scratch
// buffers. workers caps the chunk count (≤ pool workers).
func (s *SortScratch) Sort(pool *edgesim.Pool, ks []Keyed, workers int) {
	if len(ks) < 2 {
		return
	}
	if workers < 1 {
		workers = 1
	}
	if workers > pool.Workers() {
		workers = pool.Workers()
	}
	if workers > len(ks) {
		workers = len(ks)
	}
	// chunk mirrors the pool's own range decomposition, so lo/chunk is the
	// chunk ordinal a body invocation owns.
	chunk := (len(ks) + workers - 1) / workers
	nw := (len(ks) + chunk - 1) / chunk
	s.ensure(len(ks), nw)
	src, dst := ks, s.buf

	for shift := uint(0); shift < 64; shift += 8 {
		// Phase 1: local histograms (parallel; one chunk per worker index).
		hist := s.hist
		pool.Ranges(workers, len(src), func(lo, hi int) {
			h := &hist[lo/chunk]
			*h = [256]int{}
			for _, k := range src[lo:hi] {
				h[uint8(k.Code>>shift)]++
			}
		})

		// A digit every key shares orders nothing, and the histogram
		// already says so (the first key's bucket holds every key): skip
		// the pass. A depth-D frame's codes are 3D bits wide, so at depth 10
		// four of the eight passes stop here.
		same, d0 := 0, uint8(src[0].Code>>shift)
		for w := 0; w < nw; w++ {
			same += hist[w][d0]
		}
		if same == len(src) {
			continue
		}

		// Phase 2: exclusive scan over (digit, chunk) — serial, 256*nw steps.
		// offset[w][d] = items with smaller digit anywhere, plus items with
		// digit d in earlier chunks (stability).
		pos := 0
		offsets := s.offsets
		for d := 0; d < 256; d++ {
			for w := 0; w < nw; w++ {
				offsets[w][d] = pos
				pos += hist[w][d]
			}
		}

		// Phase 3: scatter (parallel; write regions are disjoint by
		// construction of the offsets).
		pool.Ranges(workers, len(src), func(lo, hi int) {
			off := offsets[lo/chunk]
			for _, k := range src[lo:hi] {
				d := uint8(k.Code >> shift)
				dst[off[d]] = k
				off[d]++
			}
		})
		src, dst = dst, src
	}
	// After an odd number of executed passes the result sits in the buffer.
	if &src[0] != &ks[0] {
		copy(ks, src)
	}
}
