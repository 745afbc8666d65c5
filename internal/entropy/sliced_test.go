package entropy

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// occupancyLike returns n bytes skewed the way occupancy streams are: mostly
// one- and two-child masks, a tail of everything else.
func occupancyLike(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n)
	for i := range out {
		switch r := rng.Intn(10); {
		case r < 6:
			out[i] = 1 << rng.Intn(8)
		case r < 9:
			out[i] = 1<<rng.Intn(8) | 1<<rng.Intn(8)
		default:
			out[i] = byte(rng.Intn(256))
		}
	}
	return out
}

// workerFan returns a Fan that cuts [0, n) into up to w chunks the way the
// worker pool does and runs each on its own goroutine.
func workerFan(w int) Fan {
	return func(n int, body func(lo, hi int)) {
		w := min(w, n)
		chunk := (n + w - 1) / w
		var wg sync.WaitGroup
		for lo := 0; lo < n; lo += chunk {
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				body(lo, hi)
			}(lo, min(lo+chunk, n))
		}
		wg.Wait()
	}
}

// slicedLengths are the raw lengths the sliced codec is held to: one byte,
// one full slice, one byte over (two slices), three slices and a remainder,
// and 1 MiB.
var slicedLengths = []int{1, SliceBytes, SliceBytes + 1, 3*SliceBytes + 7, 1 << 20}

// TestSlicedRoundTrip: every length round-trips through one Slicer used for
// all of them, behind a prefix dst already holds, and each slice of the
// stream is CompressBytes of its raw range.
func TestSlicedRoundTrip(t *testing.T) {
	var sl Slicer
	for _, n := range slicedLengths {
		raw := occupancyLike(n, int64(n))
		stream := sl.AppendCompress([]byte("hdr"), raw, nil)
		if string(stream[:3]) != "hdr" {
			t.Fatalf("n=%d: prefix overwritten", n)
		}
		got, err := sl.AppendDecompress([]byte("pre"), stream[3:], nil)
		if err != nil || string(got[:3]) != "pre" || !bytes.Equal(got[3:], raw) {
			t.Fatalf("n=%d: round trip failed (err %v)", n, err)
		}

		// The header: n, then one length per slice; each slice is the
		// one-state coding of raw[i·n/S : (i+1)·n/S].
		s := SliceCount(n)
		if want := (n + SliceBytes - 1) / SliceBytes; s != want {
			t.Fatalf("n=%d: %d slices, want %d", n, s, want)
		}
		rest := stream[3:]
		declared, k := binary.Uvarint(rest)
		rest = rest[k:]
		if int(declared) != n {
			t.Fatalf("n=%d: header declares %d", n, declared)
		}
		sizes := make([]int, s)
		for i := range sizes {
			c, k := binary.Uvarint(rest)
			sizes[i], rest = int(c), rest[k:]
		}
		for i, c := range sizes {
			if want := CompressBytes(raw[i*n/s : (i+1)*n/s]); !bytes.Equal(rest[:c], want) {
				t.Fatalf("n=%d: slice %d is not the one-state coding of its range", n, i)
			}
			rest = rest[c:]
		}
		if len(rest) != 0 {
			t.Fatalf("n=%d: %d bytes behind the last slice", n, len(rest))
		}
	}
}

// TestSlicedWorkerCountInvariant: the slice count is the stream's, never the
// fan's. At 1, 2, 3, 8 and 64 workers the stream is byte for byte the inline
// one, and decodes to the raw bytes.
func TestSlicedWorkerCountInvariant(t *testing.T) {
	for _, n := range slicedLengths {
		raw := occupancyLike(n, int64(n)+1)
		var inline Slicer
		want := inline.AppendCompress(nil, raw, nil)
		for _, w := range []int{1, 2, 3, 8, 64} {
			var sl Slicer
			fan := workerFan(w)
			got := sl.AppendCompress(nil, raw, fan)
			if !bytes.Equal(got, want) {
				t.Fatalf("n=%d: %d workers code another stream", n, w)
			}
			out, err := sl.AppendDecompress(nil, got, fan)
			if err != nil || !bytes.Equal(out, raw) {
				t.Fatalf("n=%d: %d workers decode wrongly (err %v)", n, w, err)
			}
		}
	}
}

// slicedStream is a parsed sliced stream: its declared length, slice
// lengths and slices.
type slicedStream struct {
	n      uint64
	sizes  []uint64
	slices [][]byte
}

func parseSliced(t *testing.T, stream []byte) slicedStream {
	t.Helper()
	var p slicedStream
	var k int
	p.n, k = binary.Uvarint(stream)
	stream = stream[k:]
	for i := 0; i < SliceCount(int(p.n)); i++ {
		c, k := binary.Uvarint(stream)
		p.sizes, stream = append(p.sizes, c), stream[k:]
	}
	for _, c := range p.sizes {
		p.slices, stream = append(p.slices, stream[:c]), stream[c:]
	}
	return p
}

func (p slicedStream) bytes() []byte {
	out := binary.AppendUvarint(nil, p.n)
	for _, c := range p.sizes {
		out = binary.AppendUvarint(out, c)
	}
	for _, s := range p.slices {
		out = append(out, s...)
	}
	return out
}

// hostileSlicedStreams returns broken copies of a three-slice stream of raw,
// each under the name of what is wrong with it.
func hostileSlicedStreams(t *testing.T, raw []byte) map[string][]byte {
	t.Helper()
	var sl Slicer
	good := parseSliced(t, sl.AppendCompress(nil, raw, nil))
	s, last := SliceCount(len(raw)), len(good.slices)-1
	clone := func() slicedStream {
		c := good
		c.sizes = append([]uint64(nil), good.sizes...)
		c.slices = append([][]byte(nil), good.slices...)
		return c
	}
	out := map[string][]byte{}

	// 100 slices of a bare 5-byte coder header: a table that holds, and 32 KiB
	// a slice declared by 603 bytes of stream.
	var huge slicedStream
	huge.n = 100 * SliceBytes
	for i := 0; i < 100; i++ {
		huge.sizes = append(huge.sizes, 5)
		huge.slices = append(huge.slices, make([]byte, 5))
	}
	out["raw length above the expansion bound"] = huge.bytes()

	over := clone()
	over.sizes[last] += 1 << 20
	out["slice table overruns the stream"] = over.bytes()

	out["bytes behind the last slice"] = append(good.bytes(), 0)

	for name, n := range map[string]int{"slice declares a shorter length": len(raw)/s - 1, "slice declares a longer length": len(raw)/s + 1} {
		c := clone()
		c.slices[0] = CompressBytes(raw[:n])
		c.sizes[0] = uint64(len(c.slices[0]))
		out[name] = c.bytes()
	}

	cut := clone()
	cut.slices[last] = cut.slices[last][:len(cut.slices[last])/2]
	cut.sizes[last] = uint64(len(cut.slices[last]))
	out["truncated last slice"] = cut.bytes()

	few := clone()
	few.n = uint64(len(raw)) + SliceBytes // one slice more than the table has
	out["slice count beyond the table"] = few.bytes()

	out["stream cut inside the table"] = good.bytes()[:2]
	return out
}

// TestSlicedHostileHeaders: a broken header or slice is ErrCorrupt, never a
// panic, and allocates at most the fan-out's closure and an output of
// MaxExpansion times the stream: nothing is sized before the header holds.
func TestSlicedHostileHeaders(t *testing.T) {
	raw := occupancyLike(3*SliceBytes, 7)
	for name, stream := range hostileSlicedStreams(t, raw) {
		t.Run(name, func(t *testing.T) {
			var sl Slicer
			for _, fan := range []Fan{nil, workerFan(2)} {
				out, err := sl.AppendDecompress(nil, stream, fan)
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("err %v, want ErrCorrupt", err)
				}
				if out != nil {
					t.Fatal("returned bytes with the error")
				}
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _ = sl.AppendDecompress(nil, stream, nil)
			runtime.ReadMemStats(&after)
			if got, limit := after.TotalAlloc-before.TotalAlloc, MaxExpansion*uint64(len(stream))+1<<10; got > limit {
				t.Errorf("%d bytes allocated, limit %d", got, limit)
			}
		})
	}
}

// TestSlicedSteadyStateAllocs: a warm Slicer codes and decodes into buffers
// that already have the room with one allocation, the fan-out's closure; its
// slice states and their outputs are its own.
func TestSlicedSteadyStateAllocs(t *testing.T) {
	raw := occupancyLike(3*SliceBytes+7, 3)
	var sl Slicer
	dst := sl.AppendCompress(nil, raw, nil)
	out, err := sl.AppendDecompress(nil, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]func(){
		"compress":   func() { dst = sl.AppendCompress(dst[:0], raw, nil) },
		"decompress": func() { out, err = sl.AppendDecompress(out[:0], dst, nil) },
	} {
		if a := testing.AllocsPerRun(10, f); a > 1 {
			t.Errorf("%s: %.1f allocations per call", name, a)
		}
	}
	if err != nil || !bytes.Equal(out, raw) {
		t.Fatalf("warm round trip failed: %v", err)
	}
}

func BenchmarkSliced(b *testing.B) {
	raw := occupancyLike(3*SliceBytes, 1)
	for _, w := range []int{1, 2} {
		var sl Slicer
		fan := workerFan(w)
		stream := sl.AppendCompress(nil, raw, fan)
		out := make([]byte, 0, len(raw))
		b.Run(fmt.Sprintf("compress/workers=%d", w), func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			for i := 0; i < b.N; i++ {
				stream = sl.AppendCompress(stream[:0], raw, fan)
			}
		})
		b.Run(fmt.Sprintf("decompress/workers=%d", w), func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			for i := 0; i < b.N; i++ {
				out, _ = sl.AppendDecompress(out[:0], stream, fan)
			}
		})
	}
}
