package morton

import (
	"errors"
	"math/bits"

	"repro/internal/edgesim"
)

// The one data-parallel sort over Morton codes, in three pool launches that
// each carry a whole share of the frame, because a parked pool worker takes
// far longer to start a chunk than a short pass takes to run (DESIGN.md §8):
//
//  1. Cell histograms. The keys are cut into one chunk per worker, and every
//     chunk counts its keys per level-c cell, the top 3c bits of a
//     3·depth-bit code (CellLevel picks c from the depth and the window
//     count). A caller's key pass — the codec's rescale and Morton
//     generation — runs inside this launch, block by block ahead of the count.
//  2. One serial scan turns the counts into stable chunk offsets per cell and
//     into W window cuts on cell boundaries, balanced by count; then a stable
//     scatter by cell moves every key into its cell's range.
//  3. One task per window sorts the window's own range: an LSD radix sort over
//     the bits below the cell digit, then one pass over the cell digit, whose
//     offsets the scan already holds. A caller's window body — dedup and the
//     octree sweep — runs right after it in the same task.
//
// The result is the stable order of the reference Sort for any window count:
// the scatter keeps input order within a cell, and every later pass is
// stable. Every buffer lives in a reusable SortScratch, so steady-state
// sorting allocates nothing.

// ErrLattice reports a code outside the lattice it was sorted for: at or
// above 8^depth.
var ErrLattice = errors.New("morton: code outside the lattice")

const (
	// maxCellLevel bounds the cell digit: 4 096 cells keep a chunk's
	// histogram in L1 and the scan short.
	maxCellLevel = 4
	// minCellsPerWindow is how many cells a window should get, so that whole
	// cells split the keys about evenly.
	minCellsPerWindow = 512
	// maxDigitBits bounds a window pass's digit: 2 048 buckets.
	maxDigitBits = 11
	// keyBlock is how many keys the key pass fills before it counts them, so
	// the count reads them from L1.
	keyBlock = 512
)

// CellLevel returns the level whose cells the sort partitions a depth-deep
// lattice by for the given window count: the first with minCellsPerWindow
// cells per window, at most maxCellLevel and the depth, at least 1.
func CellLevel(depth uint, windows int) uint {
	c := uint(1)
	for c < maxCellLevel && 1<<(3*c) < minCellsPerWindow*windows {
		c++
	}
	return max(min(c, depth), 1)
}

// SortScratch holds the reusable buffers of the sort. The zero value is
// ready to use; buffers grow to the largest frame and window count sorted
// and are reused across frames.
type SortScratch struct {
	buf []Keyed
	// hist is chunk-major: chunk k's count of cell c at k·cells+c, which the
	// scan turns into the chunk's scatter cursor for that cell.
	hist []int
	// cellAt[c] is where cell c starts in the sorted order; the window that
	// owns the cell advances it as its cursor in the cell pass.
	cellAt []int
	// cuts[w] is window w's first key; the row ends with the key count.
	cuts []int
	// digits is window-major: window w's digit counts for every low pass,
	// then cursors.
	digits []int
	bad    []bool
}

// Sort sorts ks by Morton code on the pool's workers, reusing the scratch
// buffers. workers caps the window count (≤ pool workers). The code width
// is found from the keys.
func (s *SortScratch) Sort(pool *edgesim.Pool, ks []Keyed, workers int) {
	if len(ks) < 2 {
		return
	}
	var all Code
	for _, k := range ks {
		all |= k.Code
	}
	depth := uint(bits.Len64(uint64(all))+2) / 3
	// Every code is below 8^depth, so the sort cannot fail.
	_ = s.SortWindows(pool, ks, max(depth, 1), min(max(workers, 1), pool.Workers()), nil, nil)
}

// SortWindows sorts ks, codes of a depth-deep lattice, as the given number of
// windows of whole level-CellLevel cells. key, when not nil, fills ks[lo:hi]
// before the keys are read: the caller's key pass, run in the histogram
// launch. window, when not nil, runs on window w's range ks[lo:hi] as soon as
// it is sorted, in the window's own task: a pool leaf, called for every
// window, empty ones included. A code at or above 8^depth is ErrLattice,
// returned after the histogram launch, before anything is moved.
func (s *SortScratch) SortWindows(pool *edgesim.Pool, ks []Keyed, depth uint, windows int, key func(lo, hi int), window func(w, lo, hi int)) error {
	n, nw := len(ks), max(windows, 1)
	if n == 0 {
		return nil
	}
	c := CellLevel(depth, nw)
	shift, cells := 3*(depth-c), 1<<(3*c)
	// The chunks mirror the pool's own range decomposition, so lo/chunk is
	// the chunk ordinal a body invocation owns.
	nc := min(nw, pool.Workers(), n)
	chunk := (n + nc - 1) / nc
	nc = (n + chunk - 1) / chunk
	// The bits below the cell digit go in an even number of passes of at
	// most maxDigitBits each, so that the cell pass after them reads the
	// scratch and writes ks.
	passes, digitBits := 0, uint(0)
	if shift > 0 {
		passes = 2 * int((shift+2*maxDigitBits-1)/(2*maxDigitBits))
		digitBits = (shift + uint(passes) - 1) / uint(passes)
	}
	s.ensure(n, nc, cells, nw, passes<<digitBits)

	// Launch 1: the key pass and the cell histograms.
	hist, bad := s.hist, s.bad
	pool.Ranges(nc, n, func(lo, hi int) {
		k := lo / chunk
		h := hist[k*cells : (k+1)*cells]
		clear(h)
		out := false
		for b := lo; b < hi; b += keyBlock {
			e := min(b+keyBlock, hi)
			if key != nil {
				key(b, e)
			}
			for _, x := range ks[b:e] {
				if cell := x.Code >> shift; cell < Code(cells) {
					h[cell]++
				} else {
					out = true
				}
			}
		}
		bad[k] = out
	})
	for _, out := range bad[:nc] {
		if out {
			return ErrLattice
		}
	}

	// The scan: cell starts, chunk cursors and the window cuts. Window w
	// starts at the first cell boundary at or past w·n/W.
	cuts, cellAt := s.cuts, s.cellAt
	pos, w := 0, 0
	cuts[0] = 0
	for cell := 0; cell < cells; cell++ {
		for w+1 < nw && pos*nw >= (w+1)*n {
			w++
			cuts[w] = pos
		}
		cellAt[cell] = pos
		for i := cell; i < nc*cells; i += cells {
			hist[i], pos = pos, pos+hist[i]
		}
	}
	for w < nw {
		w++
		cuts[w] = n
	}

	// Launch 2: the stable scatter by cell.
	src := s.buf
	pool.Ranges(nc, n, func(lo, hi int) {
		cur := hist[lo/chunk*cells:][:cells]
		for _, x := range ks[lo:hi] {
			cell := x.Code >> shift
			src[cur[cell]] = x
			cur[cell]++
		}
	})

	// Launch 3: every window sorts its own range, then runs the caller's body.
	digits, span := s.digits, passes<<digitBits
	pool.Ranges(nw, nw, func(w0, w1 int) {
		for w := w0; w < w1; w++ {
			lo, hi := cuts[w], cuts[w+1]
			// passes is even: the low passes leave the keys in the scratch,
			// and the cell pass writes the window's range of ks. The
			// window's cells are its own, so are their cursors.
			a := lsd(src[lo:hi], ks[lo:hi], digits[w*span:][:span], passes, digitBits)
			for _, x := range a {
				cell := x.Code >> shift
				ks[cellAt[cell]] = x
				cellAt[cell]++
			}
			if window != nil {
				window(w, lo, hi)
			}
		}
	})
	return nil
}

// lsd sorts a by its low passes·bits bits, bits at a time, moving the keys
// between a and b, stably, and returns the one that holds them.
func lsd(a, b []Keyed, cnt []int, passes int, bits uint) []Keyed {
	mask := Code(1)<<bits - 1
	for p := 0; p < passes; p++ {
		row, sh := cnt[:1<<bits], uint(p)*bits
		clear(row)
		for _, x := range a {
			row[x.Code>>sh&mask]++
		}
		pos := 0
		for d, c := range row {
			row[d], pos = pos, pos+c
		}
		for _, x := range a {
			d := x.Code >> sh & mask
			b[row[d]] = x
			row[d]++
		}
		a, b = b, a
	}
	return a
}

func (s *SortScratch) ensure(n, chunks, cells, windows, digits int) {
	s.buf = grow(s.buf, n)
	s.hist = grow(s.hist, chunks*cells)
	s.bad = grow(s.bad, chunks)
	s.cellAt = grow(s.cellAt, cells)
	s.cuts = grow(s.cuts, windows+1)
	s.digits = grow(s.digits, windows*digits)
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
