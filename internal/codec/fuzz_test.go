package codec

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"testing"

	"repro/internal/geom"
)

// FuzzReadFrameFrom drives the frame-container parser with arbitrary bytes.
func FuzzReadFrameFrom(f *testing.F) {
	// Seed with a valid container.
	ef := &EncodedFrame{Type: PFrame, Depth: 10, NumPoints: 3, Geometry: []byte{1, 2}, Attr: []byte{3}}
	var buf bytes.Buffer
	if _, err := ef.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	rs := &EncodedFrame{Type: IFrame, Depth: 10, NumPoints: 1, HasRescale: true}
	rs.Rescale.ScaleX, rs.Rescale.ScaleY, rs.Rescale.ScaleZ = 1<<16, 1<<16, 1<<16
	buf.Reset()
	if _, err := rs.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("PCVF"))
	f.Add([]byte{})
	f.Add(hostileLengths)

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadFrameFrom(bytes.NewReader(data))
		if err != nil {
			if err != io.EOF && g != nil {
				t.Fatal("error with non-nil frame")
			}
			return
		}
		// A parsed frame must re-serialize.
		var out bytes.Buffer
		if _, err := g.WriteTo(&out); err != nil {
			t.Fatalf("reserialize: %v", err)
		}
	})
}

// FuzzParseLayerDirectory drives the container parser with arbitrary bytes
// through its layout entry point: whenever ParseFrameLayout accepts a
// buffer, the frame parsed from the same bytes must re-serialize to them
// identically, and on layered layouts the per-viewer base-only truncation
// must itself be a container the parser accepts.
func FuzzParseLayerDirectory(f *testing.F) {
	// Seed with real layered containers, tiled and untiled, plus mutations
	// the parser must reject structurally.
	for _, tiles := range []int{0, 4} {
		opts := scaledOpts(IntraInterV1, frames(f, 1)[0].Len())
		opts.Tiles = tiles
		opts.Layers = 3
		enc := NewEncoder(dev(), opts)
		ef, _, err := enc.EncodeFrame(frames(f, 1)[0])
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := ef.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		wire := buf.Bytes()
		f.Add(append([]byte(nil), wire...))
		f.Add(append([]byte(nil), wire[:len(wire)/2]...))
		for _, off := range []int{6, 20, 40, len(wire) - 1} {
			mut := append([]byte(nil), wire...)
			mut[off] ^= 0x41
			f.Add(mut)
		}
	}
	f.Add([]byte("PCVF"))

	f.Fuzz(func(t *testing.T, data []byte) {
		l := ParseFrameLayout(data)
		if l == nil {
			return
		}
		ef, err := ReadFrameFrom(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("layout accepted but reader rejected: %v", err)
		}
		var out bytes.Buffer
		if _, err := ef.WriteTo(&out); err != nil {
			t.Fatalf("reserialize: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatal("layout-accepted container does not round-trip byte-identically")
		}
		if !l.Layered() {
			return
		}
		part, _, _ := viewerFrame(l, data, 0, 0, 1)
		if ParseFrameLayout(part) == nil {
			t.Fatal("base-only truncation rejected")
		}
	})
}

// FuzzDecodeFrame drives the whole proposed-design decoder — container,
// geometry, both attribute stages, tiles, layers — with arbitrary bytes, on
// one long-lived Decoder that holds a valid reference, the way a receiver
// meets them. Seeds are real frames of every shape, whole and as a culling,
// layer-shedding viewer gets them. Whatever the bytes: no panic; a
// full-subscription cloud has the header's points less the omitted tiles', a
// partial one at most as many; the decode allocates at most 64 B per header
// point plus 64 B per input byte, partial frames included; a frame that fails
// leaves the reference exactly as it was; and the decoder goes on decoding
// the seed GOP to the same clouds afterwards. A second decoder cuts every
// untiled frame into three windows, on any runner: it returns the same cloud
// or fails with the same error, which fuzzes the window cuts on hostile level
// counts, segment counts and varints.
func FuzzDecodeFrame(f *testing.F) {
	// A small GOP (every 16th voxel of the test frames) keeps executions in
	// the tens of microseconds.
	var clouds []*geom.VoxelCloud
	for _, vc := range frames(f, 2) {
		thin := &geom.VoxelCloud{Depth: vc.Depth}
		for i := 0; i < vc.Len(); i += 16 {
			thin.Voxels = append(thin.Voxels, vc.Voxels[i])
		}
		clouds = append(clouds, thin)
	}
	encode := func(tiles, layers int, entropy bool) (wires [][]byte) {
		opts := scaledOpts(IntraInterV1, clouds[0].Len())
		opts.Tiles, opts.Layers, opts.EntropyGeometry, opts.IntraAttr.Entropy = tiles, layers, entropy, entropy
		enc := NewEncoder(dev(), opts)
		for _, vc := range clouds {
			ef, _, err := enc.EncodeFrame(vc)
			if err != nil {
				f.Fatal(err)
			}
			wires = append(wires, serialize(f, ef))
		}
		return wires
	}
	seedGOP := encode(0, 0, false)
	for _, wires := range [][][]byte{seedGOP, encode(0, 0, true), encode(4, 0, false), encode(0, 3, true), encode(4, 3, false)} {
		for _, w := range wires {
			f.Add(w)
			if l := ParseFrameLayout(w); l != nil {
				culled, _, _ := viewerFrame(l, w, 1<<1, 1<<2, 1) // tile 1 omitted, tile 2 coarse, base layer only
				f.Add(culled)
			}
		}
	}

	decodeSeed := func(t testing.TB, dec *Decoder, w []byte) *geom.VoxelCloud {
		ef, err := ParseFrame(w)
		if err != nil {
			t.Fatal(err)
		}
		vc, err := dec.DecodeFrame(ef)
		if err != nil {
			t.Fatalf("seed frame no longer decodes: %v", err)
		}
		return vc
	}
	// The decoder under test, and one that cuts every untiled frame into three
	// windows whatever the runner's core count.
	dec, windowed := NewDecoder(dev(), OptionsFor(IntraInterV1)), NewDecoder(dev(), OptionsFor(IntraInterV1))
	windowed.windows = 3
	wantI, wantP := decodeSeed(f, dec, seedGOP[0]), decodeSeed(f, dec, seedGOP[1])
	if !sameCloud(decodeSeed(f, windowed, seedGOP[0]), wantI) || !sameCloud(decodeSeed(f, windowed, seedGOP[1]), wantP) {
		f.Fatal("three windows decode the seed GOP differently")
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		ef, err := ParseFrame(data)
		// The bound below is real memory, and omitted tiles' points are
		// backed by no input: frames that claim over 2^20 points stay out.
		if err != nil || ef.NumPoints > 1<<20 {
			return
		}
		// The allocation bound is held against a decoder that has seen the
		// seed I-frame and nothing else, so that its arena's growth counts.
		// TotalAlloc is process-wide and the fuzz worker's other goroutines
		// allocate too, so a reading over the limit is taken again, on
		// another such decoder: the decoder is deterministic, the noise is not.
		limit := 64*uint64(ef.NumPoints) + 64*uint64(len(data)) + 16<<10
		for try := 0; ; try++ {
			cold := NewDecoder(dev(), OptionsFor(IntraInterV1))
			decodeSeed(t, cold, seedGOP[0])
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _ = cold.DecodeFrame(ef)
			runtime.ReadMemStats(&after)
			got := after.TotalAlloc - before.TotalAlloc
			if got <= limit {
				break
			}
			if try == 4 {
				t.Fatalf("%d bytes allocated for %d header points and %d input bytes (limit %d)", got, ef.NumPoints, len(data), limit)
			}
		}
		vc, err := dec.DecodeFrame(ef)
		vc3, err3 := windowed.DecodeFrame(ef)
		if fmt.Sprint(err) != fmt.Sprint(err3) || err == nil && !sameCloud(vc, vc3) {
			t.Fatalf("one window: %v; three windows: %v, or another cloud", err, err3)
		}
		if err == nil {
			want := int(ef.NumPoints)
			for _, ti := range ef.Tiles {
				if ti.Omitted() {
					want -= int(ti.Points)
				}
			}
			if partial := ef.Layered() && ef.Layer.Sub < ef.Layer.Layers; vc.Len() > want || (!partial && vc.Len() != want) {
				t.Fatalf("decoded %d points, header says %d", vc.Len(), want)
			}
		}
		for _, d := range []*Decoder{dec, windowed} {
			// The frame may have become the reference; put the seed's back.
			if err == nil && !sameCloud(decodeSeed(t, d, seedGOP[0]), wantI) {
				t.Fatal("seed I-frame decodes differently after this frame")
			}
			if !sameCloud(decodeSeed(t, d, seedGOP[1]), wantP) {
				t.Fatal("seed P-frame decodes differently after this frame")
			}
		}
	})
}
