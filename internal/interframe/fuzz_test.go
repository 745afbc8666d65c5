package interframe

import "testing"

// FuzzDecodeP drives the inter-frame decoder with arbitrary bytes against a
// fixed reference frame: errors are fine, panics and runaway allocations
// are not.
func FuzzDecodeP(f *testing.F) {
	d := dev()
	iF := sortedFrame(41, 300)
	pF := jitterColors(iF, 42, 6)
	for _, th := range []float64{-1, 50, 1e9} {
		data, _, err := EncodeP(d, iF, pF, Params{Segments: 20, Candidates: 10, Threshold: th, QStep: 2})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4})
	f.Add(hostileHeader)

	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := DecodeP(d, data, iF)
		if err != nil {
			return
		}
		if len(out) > 1<<22 {
			t.Fatalf("decoder produced %d colours from %d bytes", len(out), len(data))
		}
	})
}
