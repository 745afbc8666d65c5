package interframe

import (
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/geom"
)

// FuzzDecodeP drives the count-checked P decoder entry with arbitrary bytes
// against a fixed reference frame and a geometry of a stated size — the 300
// points of the seeds, and whatever count the stream itself claims (up to
// 2^16, so that the fuzzer can reach past the header at any size it
// invents). Errors are fine; panics are not, and neither is allocating more
// than 64 B per stated point plus 64 B per input byte: reuse blocks cost a
// stream nothing per point, so nothing may be sized from its own counts.
func FuzzDecodeP(f *testing.F) {
	d := dev()
	iF := sortedFrame(41, 300)
	pF := jitterColors(iF, 42, 6)
	ref := frameColors(iF)
	for _, th := range []float64{-1, 50, 1e9} {
		data, _, err := EncodeP(d, iF, pF, Params{Segments: 20, Candidates: 10, Threshold: th, QStep: 2})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add(hostileCount)
	f.Add(hostileHeader)

	f.Fuzz(func(t *testing.T, data []byte) {
		counts := []int{len(pF)}
		if n, _ := binary.Uvarint(data); n <= 1<<16 {
			counts = append(counts, int(n))
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
				_ = decodePOne(&s, dst, data, ref)
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
