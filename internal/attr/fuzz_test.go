package attr

import (
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/geom"
)

// FuzzDecode drives the count-checked decoder entry with arbitrary bytes
// against a geometry of a stated size — the 200 points of the seeds, and
// whatever count the stream itself claims (up to 2^16, so that the fuzzer
// can reach past the header at any size it invents). It must return an
// error or fill exactly the stated colours, never panic, and never allocate
// more than 64 B per stated point plus 64 B per input byte: nothing may be
// sized from the stream's own counts. (Run with `go test -fuzz FuzzDecode
// ./internal/attr` to explore; the seed corpus runs in normal `go test`.)
func FuzzDecode(f *testing.F) {
	d := dev()
	// Seed with valid streams of each variant.
	colors := smoothColors(31, 200)
	for _, p := range []Params{
		{Segments: 10, QStep: 1, Layers: 1},
		{Segments: 10, QStep: 4, Layers: 2},
		{Segments: 10, QStep: 4, Layers: 2, Entropy: true},
		{Segments: 10, QStep: 2, Layers: 2, YCoCg: true},
	} {
		data, err := Encode(d, colors, p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add(hostileCount)

	f.Fuzz(func(t *testing.T, data []byte) {
		counts := []int{len(colors)}
		if len(data) > 1 && data[0] == 0 {
			if n, _ := binary.Uvarint(data[1:]); n <= 1<<16 {
				counts = append(counts, int(n))
			}
		}
		for _, n := range counts {
			dst := make([]geom.Color, n)
			// TotalAlloc is process-wide and the fuzz worker's other
			// goroutines allocate too, so a reading over the limit is taken
			// again: the decoder is deterministic, the noise is not.
			limit := uint64(64*n + 64*len(data) + 4096)
			for try := 0; ; try++ {
				var s DecodeScratch
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				_ = decodeOne(&s, dst, data)
				runtime.ReadMemStats(&after)
				got := after.TotalAlloc - before.TotalAlloc
				if got <= limit {
					break
				}
				if try == 4 {
					t.Fatalf("%d bytes allocated for %d stated points and %d input bytes (limit %d)", got, n, len(data), limit)
				}
			}
		}
	})
}
