package paroctree

import (
	"bytes"
	"runtime"
	"slices"
	"testing"

	"repro/internal/morton"
)

// FuzzDeserialize feeds the geometry expander — the first thing network
// bytes reach after the container — arbitrary streams. It must never
// panic; the three front ends must agree (DeserializeLoD at level == depth
// is Deserialize minus the trailing-bytes rule), and so must the stream cut
// into three windows; an accepted stream must
// re-serialize through the sweep to the identical bytes; and allocation
// stays within 8 codes (64 bytes) per input byte.
func FuzzDeserialize(f *testing.F) {
	br, err := Build(dev(), randomCloud(3, 200, 6))
	if err != nil {
		f.Fatal(err)
	}
	good := br.Tree.Serialize(dev())
	f.Add(good, uint8(6))
	f.Add(good[:len(good)/2], uint8(6))
	f.Add(append(bytes.Clone(good), 1), uint8(6))
	f.Add([]byte{0}, uint8(1))
	f.Add([]byte{0xFF, 0xFF}, uint8(21))
	f.Add([]byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, stream []byte, d8 uint8) {
		depth := uint(d8 % 24) // 0, 22, 23: out of range
		// 8 codes of 8 bytes per input byte, plus the ledger's rows and an
		// error value. TotalAlloc is process-wide and the fuzz worker's
		// other goroutines allocate too, so a reading over the limit is
		// taken again: the expander is deterministic, the noise is not.
		var codes []morton.Code
		var err error
		d := dev()
		limit := uint64(64*len(stream) + 4096)
		for try := 0; ; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			codes, err = Deserialize(d, stream, depth)
			runtime.ReadMemStats(&after)
			got := after.TotalAlloc - before.TotalAlloc
			if got <= limit {
				break
			}
			if try == 4 {
				t.Fatalf("%d bytes allocated for %d input bytes (limit %d)", got, len(stream), limit)
			}
		}
		// The per-tile entry fills a column of exactly the stream's leaf
		// count with the same codes, and refuses any other length.
		serial := make([]morton.Code, len(codes)+1)
		if DeserializeSerial(serial, stream, depth) == nil {
			t.Fatalf("DeserializeSerial filled %d codes from a stream of %d (%v)", len(serial), len(codes), err)
		}
		serial = serial[:len(codes)]
		if serr := DeserializeSerial(serial, stream, depth); (err == nil) != (serr == nil) || !slices.Equal(codes, serial) {
			t.Fatalf("Deserialize (%d codes, %v) != DeserializeSerial (%v)", len(codes), err, serr)
		}
		lod, lerr := DeserializeLoD(d, stream, depth, depth)
		// Three windows, cut wherever the levels allow or no deeper than half
		// the depth, expand to the same codes or refuse with the same error.
		for _, base := range []uint{depth, depth / 2} {
			win, werr := expandWindows(t, stream, depth, depth, base, 3)
			if (werr == nil) != (lerr == nil) || werr != nil && werr.Error() != lerr.Error() || lerr == nil && !slices.Equal(win, lod.Codes) {
				t.Fatalf("3 windows, base %d: %d codes (%v); one window: %v", base, len(win), werr, lerr)
			}
		}
		if err != nil {
			// LoD may still accept: the one extra rule is trailing bytes.
			if lerr == nil && lod.PrefixBytes == len(stream) && len(stream) > 0 {
				t.Fatalf("Deserialize refused (%v) a stream DeserializeLoD read to its end", err)
			}
			return
		}
		if lerr != nil || !slices.Equal(lod.Codes, codes) || lod.PrefixBytes != len(stream) {
			t.Fatalf("DeserializeLoD(depth) = %v, %v; Deserialize gave %d codes over %d bytes", lod, lerr, len(codes), len(stream))
		}
		if len(codes) == 0 {
			return
		}
		var s TileScratch
		back, err := s.SerializeSubtree(codes, depth, nil)
		if err != nil || !bytes.Equal(back, stream) {
			t.Fatalf("accepted stream does not re-serialize to itself (%v)", err)
		}
	})
}
