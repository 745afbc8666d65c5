package codec

import (
	"bytes"
	"io"
	"testing"
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
