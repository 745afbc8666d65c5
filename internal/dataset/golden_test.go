package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// TestFramesPinned pins the generators' output bit for bit: the SHA-256 of
// each frame's voxels (X, Y, Z as little-endian uint32, then R, G, B) in
// output order. A speed-up of the ray caster or of Voxelize must leave
// every line unchanged; a deliberate change to a generator rewrites them.
func TestFramesPinned(t *testing.T) {
	for _, c := range []struct {
		video string
		scale float64
		want  map[int]string // frame -> hash
	}{
		{"kitti-sparse", 0.05, map[int]string{
			0:   "affabadb8dff40a1f1dde2fed4865d55fa09baef922dcd20faf2f75fc39b40a7",
			1:   "9d407ab6dcfe28c4c745395a684565f8915322bf5af0aa2d82317eeccbcfa5bc",
			15:  "1b383513d1a1a0508af1e3803747d8ed3113daee2db4bae2af53af34eb420859",
			299: "6f1c62b64a69ee2592fca79bbbf44c648f8267dd5f2bd3cfaeab537d514bdeb4",
		}},
		{"kitti-sparse", 0.25, map[int]string{
			0:   "6f7c798680c56cfd821cabed13a8045127f728577d16fc62369844e475d37940",
			1:   "fa3f1698ae97372647dfee6c3bb03586d1c3e793705f17eb5d13f137be8617da",
			15:  "62532d56f4f15b8076aa751dfcde64d95a06882e80a43bb4b2717440498c7e11",
			299: "2c509d919ee4ea6fc4944f5a876e3bc0685906373b8ea423f8d84c8d6ead1989",
		}},
		{"ford-sparse", 0.05, map[int]string{
			0:   "b7e1fca8d1dc6d6f583bd86baa9e3295ab18ec67dc45c3cd1e6dbeb2363011a3",
			1:   "6462da25bc6fb997a7449974e2e32364aaf0f62b50674f38fe4b1cb8b9792dd1",
			15:  "75f8ff3c6f0bf6096db2a11ed2ecb01f794c81600a5fa60ad7270e7cfe6a2131",
			299: "f9ba4439ea9721ef7d8411432e44d314fbbb78767837bcb36bbf0de953270981",
		}},
		{"ford-sparse", 0.25, map[int]string{
			0:   "63713eeaac0a06678c50bd3c372084cd7719bf9a0bd2945a3b99570c8954abcb",
			1:   "974594c60518385f1bca463c1aee340d665a76bb3f2e979039e0e771bae2da55",
			15:  "97d7cb610ecd281c2cf15b89eb67d321bcd25a9768cf031672dd1b44b4c7d430",
			299: "d997c2014cbed9bca56556f69590989c0679f20b4b680292b904b35537070156",
		}},
		{"longdress", 0.02, map[int]string{
			0: "0be7eda36184435d65ad942af3fa01e5dcd670b413749ebc6478ae70a3f1a698",
			1: "714a2e88af20b568b797a3667c5e7c72cea5055740e5b599d35b2aef44ebbde3",
		}},
	} {
		spec, err := SpecByName(c.video)
		if err != nil {
			t.Fatal(err)
		}
		g := NewGenerator(spec, c.scale)
		for frame, want := range c.want {
			vc, err := g.Frame(frame)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			var rec [15]byte
			for _, v := range vc.Voxels {
				binary.LittleEndian.PutUint32(rec[0:], v.X)
				binary.LittleEndian.PutUint32(rec[4:], v.Y)
				binary.LittleEndian.PutUint32(rec[8:], v.Z)
				rec[12], rec[13], rec[14] = v.C.R, v.C.G, v.C.B
				h.Write(rec[:])
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != want {
				t.Errorf("%s scale %g frame %d: %d voxels hash %s, want %s", c.video, c.scale, frame, vc.Len(), got, want)
			}
		}
	}
}
