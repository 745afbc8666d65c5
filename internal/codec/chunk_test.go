package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"repro/internal/entropy"
	"repro/internal/geom"
)

// mode2Frame encodes the first golden frame untiled with the geometry entropy
// stage on — one geometry chunk of 79 952 raw bytes, which the encoder writes
// as mode 2's three slices — and returns it with its raw occupancy bytes.
func mode2Frame(t *testing.T) (*EncodedFrame, []byte) {
	t.Helper()
	opts := layerOpts(IntraInterV1, 0, 0)
	opts.EntropyGeometry = true
	ef, _, err := NewEncoder(dev(), opts).EncodeFrame(goldenFrames(t)[0])
	if err != nil {
		t.Fatal(err)
	}
	if ef.Geometry[0] != 2 {
		t.Fatalf("the frame's geometry chunk is mode %d, not 2", ef.Geometry[0])
	}
	raw, err := AppendGeomChunk(nil, ef.Geometry, new(entropy.Slicer), nil)
	if err != nil {
		t.Fatal(err)
	}
	return ef, raw
}

// decodeWire parses wire and decodes it on dec.
func decodeWire(dec *Decoder, wire []byte) (*geom.VoxelCloud, error) {
	ef, err := ParseFrame(wire)
	if err != nil {
		return nil, err
	}
	return dec.DecodeFrame(ef)
}

// withGeometry returns the wire form of ef with its geometry chunk replaced.
func withGeometry(t *testing.T, ef *EncodedFrame, chunk []byte) []byte {
	t.Helper()
	f := *ef
	f.Geometry = chunk
	return serialize(t, &f)
}

// TestGeomChunkModes: the encoder writes mode 0 with entropy off, mode 1 up
// to entropy.SliceBytes raw bytes and mode 2 above, and every chunk unwraps
// to its raw bytes inline and on the worker pool. A mode-1 chunk — what the
// encoder wrote for every entropy-coded chunk before mode 2 — still decodes,
// to the cloud its mode-2 frame decodes to.
func TestGeomChunkModes(t *testing.T) {
	ef, raw := mode2Frame(t)
	var sl entropy.Slicer
	for _, tc := range []struct {
		n         int
		entropyOn bool
		mode      byte
	}{
		{entropy.SliceBytes, false, 0},
		{1, true, 1},
		{entropy.SliceBytes, true, 1},
		{entropy.SliceBytes + 1, true, 2},
		{len(raw), true, 2},
	} {
		chunk := appendGeomChunk([]byte{9}, raw[:tc.n], tc.entropyOn, &sl, dev().ParallelFor)
		if chunk[0] != 9 || chunk[1] != tc.mode {
			t.Fatalf("%d raw bytes, entropy %v: mode %d, want %d", tc.n, tc.entropyOn, chunk[1], tc.mode)
		}
		for _, fan := range []entropy.Fan{nil, dev().ParallelFor} {
			got, err := AppendGeomChunk([]byte{7}, chunk[1:], &sl, fan)
			if err != nil || got[0] != 7 || !bytes.Equal(got[1:], raw[:tc.n]) {
				t.Fatalf("%d raw bytes, mode %d: does not unwrap (err %v)", tc.n, tc.mode, err)
			}
		}
	}

	want, err := NewDecoder(dev(), OptionsFor(IntraInterV1)).DecodeFrame(ef)
	if err != nil {
		t.Fatal(err)
	}
	mode1 := entropy.AppendCompressBytes([]byte{1}, raw)
	if len(mode1) != 1+37103 {
		t.Errorf("the one-state chunk is %d B; the encoder wrote 37 104", len(mode1))
	}
	for _, windows := range []int{1, 3} {
		dec := NewDecoder(dev(), OptionsFor(IntraInterV1))
		dec.windows = windows
		got, err := decodeWire(dec, withGeometry(t, ef, mode1))
		if err != nil || !sameCloud(got, want) {
			t.Fatalf("%d windows: the mode-1 frame decodes to another cloud (err %v)", windows, err)
		}
	}
}

// hostileMode2 returns broken copies of a mode-2 chunk of raw, by what is
// wrong with them.
func hostileMode2(chunk, raw []byte) map[string][]byte {
	n, k := binary.Uvarint(chunk[1:])
	table := chunk[1+k:]
	s := entropy.SliceCount(int(n))
	sizes := make([]uint64, s)
	for i := range sizes {
		sizes[i], k = binary.Uvarint(table)
		table = table[k:]
	}
	slices := make([][]byte, s)
	for i, c := range sizes {
		slices[i], table = table[:c], table[c:]
	}
	build := func(n uint64, sizes []uint64, slices [][]byte) []byte {
		out := binary.AppendUvarint([]byte{2}, n)
		for _, c := range sizes {
			out = binary.AppendUvarint(out, c)
		}
		for _, sl := range slices {
			out = append(out, sl...)
		}
		return out
	}
	clone := func() ([]uint64, [][]byte) {
		return append([]uint64(nil), sizes...), append([][]byte(nil), slices...)
	}
	out := map[string][]byte{
		"raw length above the expansion bound": build(entropy.MaxExpansion*uint64(len(chunk))+1, sizes, slices),
		"raw length 2^40":                      build(1<<40, sizes, slices),
		"chunk cut inside the table":           chunk[:1+k+1],
		// Sliced streams the entropy layer reads, which the encoder writes as
		// mode 1.
		"raw length 0":            new(entropy.Slicer).AppendCompress([]byte{2}, nil, nil),
		"raw length of one slice": new(entropy.Slicer).AppendCompress([]byte{2}, raw[:entropy.SliceBytes], nil),
	}
	sz, sl := clone()
	sz[s-1] += 1 << 20
	out["slice table overruns the chunk"] = build(n, sz, sl)

	for name, m := range map[string]int{"slice declares a shorter length": int(n)/s - 1, "slice declares a longer length": int(n)/s + 1} {
		sz, sl = clone()
		sl[0] = entropy.CompressBytes(raw[:m])
		sz[0] = uint64(len(sl[0]))
		out[name] = build(n, sz, sl)
	}
	out["bytes behind the last slice"] = append(build(n, sizes, slices), 0)

	sz, sl = clone()
	sl[s-1] = sl[s-1][:len(sl[s-1])/2]
	sz[s-1] = uint64(len(sl[s-1]))
	out["truncated last slice"] = build(n, sz, sl)
	return out
}

// TestGeomChunkHostileMode2: a broken mode-2 header or slice fails the frame
// with ErrBadContainer or entropy.ErrCorrupt at one window and at three,
// never panics, allocates within FuzzDecodeFrame's bound on a fresh decoder,
// and leaves the decoder decoding the intact frame as before.
func TestGeomChunkHostileMode2(t *testing.T) {
	ef, raw := mode2Frame(t)
	good := serialize(t, ef)
	for name, chunk := range hostileMode2(ef.Geometry, raw) {
		t.Run(name, func(t *testing.T) {
			wire := withGeometry(t, ef, chunk)
			for _, windows := range []int{1, 3} {
				dec := NewDecoder(dev(), OptionsFor(IntraInterV1))
				dec.windows = windows
				want, err := decodeWire(dec, good)
				if err != nil {
					t.Fatal(err)
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("%d windows: panic %v", windows, r)
						}
					}()
					if _, err := decodeWire(dec, wire); !errors.Is(err, ErrBadContainer) && !errors.Is(err, entropy.ErrCorrupt) {
						t.Errorf("%d windows: err %v", windows, err)
					}
				}()
				if got, err := decodeWire(dec, good); err != nil || !sameCloud(got, want) {
					t.Errorf("%d windows: the intact frame decodes differently afterwards (err %v)", windows, err)
				}
			}
			limit := 64*uint64(ef.NumPoints) + 64*uint64(len(wire)) + 16<<10
			var before, after runtime.MemStats
			cold := NewDecoder(dev(), OptionsFor(IntraInterV1))
			runtime.ReadMemStats(&before)
			_, _ = decodeWire(cold, wire)
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; got > limit {
				t.Errorf("%d bytes allocated (limit %d)", got, limit)
			}
		})
	}
}
