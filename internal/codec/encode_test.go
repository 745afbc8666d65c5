package codec

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/attr"
	"repro/internal/dataset"
	"repro/internal/edgesim"
	"repro/internal/geom"
	"repro/internal/interframe"
	"repro/internal/morton"
)

// tiledStreamHashes pins the exact bytes of the tiled (and tiled + layered)
// streams over the six golden frames. Tiled streams are decode-exact against
// the untiled codec by construction but had no byte pin of their own; these
// were captured at the commit before the encoders became one body each.
var tiledStreamHashes = []struct {
	name string
	opts func() Options
	want string
}{
	{"Intra-Only/tiles=4/layers=0", func() Options { return layerOpts(IntraOnly, 4, 0) }, "6380f84cec76bda5d44405097826d79073f21e27e44dd2d6e2daabb8737a12a3"},
	{"Intra-Only/tiles=4/layers=3", func() Options { return layerOpts(IntraOnly, 4, 3) }, "95449a8e8b921abfaf183c6c6feb6c7612dc27e5560215536773ed1db0b9f666"},
	{"Intra-Only/tiles=8/layers=0", func() Options { return layerOpts(IntraOnly, 8, 0) }, "51613a424562cbf53fcea220c40480aae0ae05d3405a3a4abd858310b4ac121c"},
	{"Intra-Only/tiles=8/layers=3", func() Options { return layerOpts(IntraOnly, 8, 3) }, "ad4cb17d833d6addbfe73b4675dcde49d3901c34a964c766218edbe2cfb103c3"},
	{"Intra-Inter-V1/tiles=4/layers=0", func() Options { return layerOpts(IntraInterV1, 4, 0) }, "850454914287e440929ac7b82b3641b65558677437ff09ed4dd6c8ed18d7bc58"},
	{"Intra-Inter-V1/tiles=4/layers=3", func() Options { return layerOpts(IntraInterV1, 4, 3) }, "238c313480c7036c3cabaab69803eeffc55473cb16838947b4185d7ad086dfca"},
	{"Intra-Inter-V1/tiles=8/layers=0", func() Options { return layerOpts(IntraInterV1, 8, 0) }, "77f69b5ca983b02b9efb9bdb6d891d283b17bc42a3401abcb4eafeddd96523c2"},
	{"Intra-Inter-V1/tiles=8/layers=3", func() Options { return layerOpts(IntraInterV1, 8, 3) }, "3f8a413c7ccecb6b6af27285980b71b9ca0601083990133e0dc624cd0665051c"},
	{"Intra-Inter-V1/tiles=4/attribute entropy", func() Options {
		o := layerOpts(IntraInterV1, 4, 0)
		o.IntraAttr.Entropy = true
		return o
	}, "1b7eb85ebceb8dc0c72698a45ee7b199592611854ae25c4e1e51f2660a11ea4e"},
	{"Intra-Inter-V1/tiles=4/YCoCg", func() Options {
		o := layerOpts(IntraInterV1, 4, 0)
		o.IntraAttr.YCoCg = true
		return o
	}, "125b86079d635629cb37d89483e93cfb04d0091de8bea0f2469753ef1709ab60"},
	{"Intra-Inter-V1/tiles=4/geometry entropy", func() Options {
		o := layerOpts(IntraInterV1, 4, 0)
		o.EntropyGeometry = true
		return o
	}, "724baf8e00f1b50ad2d6ad9e5fcb9c6645875138a7dc9425e8c05e98270fe385"},
}

// layeredStreamHashes pins the untiled-layered and layered-entropy streams the
// same way: they had decode-exactness tests but no byte pin. Captured at the
// commit before the geometry phase wrote its layers itself; the untiled
// geometry-entropy row again when chunks over entropy.SliceBytes became
// sliced (mode 2).
var layeredStreamHashes = []struct {
	name string
	opts func() Options
	want string
}{
	{"Intra-Only/tiles=0/layers=3", func() Options { return layerOpts(IntraOnly, 0, 3) }, "a5f11db328e0e7a42a3d2223138cc8f4b412efb7d1124e0014d9db2f999b7ea7"},
	{"Intra-Inter-V1/tiles=0/layers=3", func() Options { return layerOpts(IntraInterV1, 0, 3) }, "4acb9ed6cda723a29d26c8a9d230089e5754c7c7d02c5cda363194aef215efd9"},
	{"Intra-Inter-V1/tiles=0/layers=3/geometry entropy", func() Options {
		o := layerOpts(IntraInterV1, 0, 3)
		o.EntropyGeometry = true
		return o
	}, "ae1e5087487ae5091c6ca191d3112826e15fbebc4f34256fde601a73038de77b"}, // the top layer's chunk is over entropy.SliceBytes: mode 2
	{"Intra-Inter-V1/tiles=4/layers=3/geometry entropy", func() Options {
		o := layerOpts(IntraInterV1, 4, 3)
		o.EntropyGeometry = true
		return o
	}, "8dab6ec03756229213e030e629ab3e2f3633353a160158ca3006747f18d41924"},
	{"Intra-Inter-V1/tiles=0/layers=8", func() Options { return layerOpts(IntraInterV1, 0, 8) }, "7b5ae74f5a6d436c08b248a65015439d164407eae9ef1d775e888b2a05dde959"},
}

// goldenStreamHash encodes the six golden frames under opts and returns the
// hash of their serialized containers, checking each frame's shape first.
func goldenStreamHash(t *testing.T, opts Options, check func(*EncodedFrame) bool) string {
	t.Helper()
	enc := NewEncoder(dev(), opts)
	h := sha256.New()
	for _, f := range goldenFrames(t) {
		ef, _, err := enc.EncodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		if !check(ef) {
			t.Fatal("frame does not have the shape the row names")
		}
		if _, err := ef.WriteTo(h); err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTiledStreamsPinned asserts byte-identical tiled streams across
// refactors of the encode path, as TestGoldenStreams does for untiled ones.
func TestTiledStreamsPinned(t *testing.T) {
	for _, tc := range tiledStreamHashes {
		t.Run(tc.name, func(t *testing.T) {
			if got := goldenStreamHash(t, tc.opts(), (*EncodedFrame).Tiled); got != tc.want {
				t.Errorf("tiled stream hash changed:\n got  %s\n want %s", got, tc.want)
			}
		})
	}
}

// TestLayeredStreamsPinned is TestTiledStreamsPinned for the layered shapes
// that table does not reach: untiled x layers, and per-layer geometry entropy.
func TestLayeredStreamsPinned(t *testing.T) {
	for _, tc := range layeredStreamHashes {
		t.Run(tc.name, func(t *testing.T) {
			if got := goldenStreamHash(t, tc.opts(), (*EncodedFrame).Layered); got != tc.want {
				t.Errorf("layered stream hash changed:\n got  %s\n want %s", got, tc.want)
			}
		})
	}
}

// encodeLedger encodes the first n golden frames under opts on d and returns
// d's ledger.
func encodeLedger(t *testing.T, d *edgesim.Device, opts Options, n int) []ledgerRow {
	t.Helper()
	enc := NewEncoder(d, opts)
	for _, vc := range goldenFrames(t)[:n] {
		if _, _, err := enc.EncodeFrame(vc); err != nil {
			t.Fatal(err)
		}
	}
	var rows []ledgerRow
	for _, k := range d.Kernels() {
		rows = append(rows, ledgerRow{k.Name, k.Stage, k.Launches, k.Items, k.Ops, k.Bytes, k.SimTime})
	}
	return rows
}

// TestEncodeLedgerPinned pins the encode direction's accounting layer: the
// ledger of one I + one P encode — untiled, untiled and layered, with both
// entropy stages, tiled, tiled with the geometry entropy stage, the same
// layered, and untiled on a device with the fixed-function unit —
// is the table captured at the commit before the attribute encoders became
// one body each: same kernels, same launch counts and order, same items,
// ops, bytes and simulated time.
func TestEncodeLedgerPinned(t *testing.T) {
	entropyOpts := layerOpts(IntraOnly, 0, 0)
	entropyOpts.EntropyGeometry = true
	entropyOpts.IntraAttr.Entropy = true
	tiledEntropy := layerOpts(IntraInterV1, 4, 0)
	tiledEntropy.EntropyGeometry = true
	layered := tiledEntropy
	layered.Layers = 3
	accel := func() *edgesim.Device {
		return edgesim.New(edgesim.WithAccelerator(edgesim.XavierConfig(edgesim.Mode15W), edgesim.DefaultAccel()))
	}
	// The geometry stage's rows of two untiled and of two tiled frames.
	untiledGeom := []ledgerRow{
		{"Rescale", "Geometry", 2, 74060, 888720, 1.18496e+06, 84507},
		{"MortonGen", "Geometry", 2, 74060, 888720, 1.18496e+06, 84507},
		{"RadixSort", "Geometry", 2, 74060, 4.088112e+07, 1.895936e+07, 2087331},
		{"Dedup", "Geometry", 2, 74060, 666540, 1.18496e+06, 73379},
		{"LevelFlag", "Geometry", 20, 234021, 1.404126e+06, 1.872168e+06, 470309},
		{"LevelCompact", "Geometry", 20, 234021, 6.7632069e+07, 5.616504e+06, 3787012},
		{"ParentLink", "Geometry", 20, 234021, 936084, 1.872168e+06, 446868},
		{"OccupyBits", "Geometry", 2, 234021, 1.0764966e+07, 2.106189e+06, 579110},
		{"OccupyPack", "Geometry", 2, 234023, 8.190805e+06, 468046, 450195},
		{"SerializePack", "Geometry", 2, 159963, 5.598705e+06, 319926, 320383},
	}
	tiledGeom := []ledgerRow{
		{"Rescale", "Geometry", 2, 74060, 888720, 1.18496e+06, 84507},
		{"MortonGen", "Geometry", 2, 74060, 888720, 1.18496e+06, 84507},
		{"RadixSort", "Geometry", 2, 74060, 4.088112e+07, 1.895936e+07, 2087331},
		{"Dedup", "Geometry", 2, 74060, 666540, 1.18496e+06, 73379},
		{"TileGeometry", "Geometry", 2, 74060, 1.33308e+07, 1.33308e+06, 707608},
	}
	intra := []ledgerRow{
		{"MidResidual", "Attribute", 3, 4500, 1.9773486e+07, 888696, 1050258},
		{"Quantize", "Attribute", 3, 111087, 6.554133e+06, 888696, 388230},
		{"MidResidual_L2", "Attribute", 3, 4500, 1.9773486e+07, 888696, 1050258},
		{"PackBits", "Attribute", 3, 4500, 9.886743e+06, 333260.99999999994, 555129},
	}
	tiledEntropyAttr := []ledgerRow{
		{"GeomEntropy", "", 2, 160012, 2.40018e+07, 320024, 24001800},
		{"TileAttrIntra", "Attribute", 1, 37029, 5.55435e+07, 2.96232e+06, 2801625},
		{"TileAttrInter", "Attribute", 1, 37031, 1.036868e+08, 2.703263e+07, 5212648},
	}
	inter := []ledgerRow{
		{"Diff_Squared", "Attribute", 1, 2500, 4.07341e+07, 2.22186e+07, 2059968},
		{"Squared_Sum", "Attribute", 1, 3703100, 1.85155e+07, 3.7031e+06, 947258},
		{"ReuseDecide", "Attribute", 1, 2500, 212500, 20000, 30642},
		{"Reuse_Pointer", "Attribute", 1, 2500, 50000, 5000, 22504},
		{"AddressGen", "Attribute", 1, 37031, 3.7031e+07, 444372, 1874517},
		{"Delta_Quantize", "Attribute", 1, 2500, 7.221045e+06, 407341, 381630},
	}
	for _, tc := range []struct {
		name   string
		dev    func() *edgesim.Device
		opts   Options
		frames int
		want   []ledgerRow
	}{
		{"untiled I+P", dev, layerOpts(IntraInterV1, 0, 0), 2, slices.Concat(untiledGeom, intra, inter)},
		// Layers re-frame an untiled frame's bytes and book nothing.
		{"untiled and layered I+P", dev, layerOpts(IntraInterV1, 0, 3), 2, slices.Concat(untiledGeom, intra, inter)},
		{"untiled I, entropy geometry and attributes", dev, entropyOpts, 1, slices.Concat([]ledgerRow{
			{"Rescale", "Geometry", 1, 37029, 444348, 592464, 42253},
			{"MortonGen", "Geometry", 1, 37029, 444348, 592464, 42253},
			{"RadixSort", "Geometry", 1, 37029, 2.0440008e+07, 9.479424e+06, 1043638},
			{"Dedup", "Geometry", 1, 37029, 333261, 592464, 36689},
			{"LevelFlag", "Geometry", 10, 116980, 701880, 935840, 235145},
			{"LevelCompact", "Geometry", 10, 116980, 3.380722e+07, 2.80752e+06, 1893065},
			{"ParentLink", "Geometry", 10, 116980, 467920, 935840, 223428},
			{"OccupyBits", "Geometry", 1, 116980, 5.38108e+06, 1.05282e+06, 289485},
			{"OccupyPack", "Geometry", 1, 116981, 4.094335e+06, 233962, 225044},
			{"SerializePack", "Geometry", 1, 79952, 2.79832e+06, 159904, 160140},
			{"GeomEntropy", "", 1, 79952, 1.19928e+07, 159904, 11992800},
		}, intra, []ledgerRow{
			{"AttrEntropy", "Attribute", 1, 59396, 8.9094e+06, 118792, 8909400},
		})},
		{"tiled I+P", dev, layerOpts(IntraInterV1, 4, 0), 2, slices.Concat(tiledGeom, []ledgerRow{
			{"TileAttrIntra", "Attribute", 1, 37029, 5.55435e+07, 2.96232e+06, 2801625},
			{"TileAttrInter", "Attribute", 1, 37031, 1.036868e+08, 2.703263e+07, 5212648},
		})},
		// The entropy stage is one row a frame over the raw occupancy bytes of
		// every tile (160 012 B: each tile repeats the ancestors it shares with
		// its neighbours, the untiled stream is 159 963 B), layered or not.
		{"tiled I+P, entropy geometry", dev, tiledEntropy, 2, slices.Concat(tiledGeom, tiledEntropyAttr)},
		{"tiled and layered I+P, entropy geometry", dev, layered, 2, slices.Concat(tiledGeom, tiledEntropyAttr)},
		{"untiled I+P with the accelerator", accel, layerOpts(IntraInterV1, 0, 0), 2, slices.Concat(untiledGeom, intra, []ledgerRow{
			{"Diff_Squared", "Attribute", 1, 2500, 4.07341e+07, 2.22186e+07, 262588},
			{"Squared_Sum", "Attribute", 1, 3703100, 1.85155e+07, 3.7031e+06, 123721},
			{"ReuseDecide", "Attribute", 1, 2500, 212500, 20000, 30642},
			{"Reuse_Pointer", "Attribute", 1, 2500, 50000, 5000, 22504},
			{"AddressGen", "Attribute", 1, 37031, 3.7031e+07, 444372, 1874517},
			{"Delta_Quantize", "Attribute", 1, 2500, 7.221045e+06, 407341, 381630},
		})},
	} {
		if got := encodeLedger(t, tc.dev(), tc.opts, tc.frames); !slices.Equal(got, tc.want) {
			t.Errorf("%s ledger:\n got %v\nwant %v", tc.name, got, tc.want)
		}
	}
}

// TestEncodeWorkerCountInvariant: the window cut is not in the stream. An
// untiled I-frame and P-frame coded as 1, 2, 3, 8 or 64 windows — and a
// 40-point frame as more windows than it has segments — are byte for byte the
// one-window front ends' output, across layers, colour space, quantization
// and segment size, and the front end's reconstruction is what the decoder
// returns. Tiled streams come out the same however many windows are asked
// for and however the pool orders their units. A frame whose geometry chunk is
// entropy-coded as mode 2's slices is the same stream at every window count.
func TestEncodeWorkerCountInvariant(t *testing.T) {
	fs := frames(t, 2)
	tiny := &geom.VoxelCloud{Depth: fs[0].Depth, Voxels: fs[0].Voxels[:40]}
	tiny2 := &geom.VoxelCloud{Depth: fs[1].Depth, Voxels: fs[1].Voxels[:40]}
	for _, clouds := range [][]*geom.VoxelCloud{fs, {tiny, tiny2}} {
		for _, layers := range []int{1, 2} {
			for _, ycocg := range []bool{false, true} {
				for _, qstep := range []int{1, 4} {
					for _, perSeg := range []int{1, 16, 25} {
						opts := OptionsFor(IntraInterV1)
						opts.GOP = 2
						opts.IntraAttr = attr.Params{Segments: max(clouds[0].Len()/perSeg, 1), QStep: qstep, Layers: layers, YCoCg: ycocg}
						opts.Inter.Segments = max(clouds[0].Len()/perSeg, 1)
						opts.Inter.Candidates = 32
						opts.Inter.QStep = qstep
						checkWindowCounts(t, fmt.Sprintf("%d points, %+v", clouds[0].Len(), opts.IntraAttr), opts, clouds)
					}
				}
			}
		}
	}
	// Geometry entropy over entropy.SliceBytes: the golden frames' chunks are
	// mode 2, and its slices are the stream's, not the window count's.
	opts := layerOpts(IntraInterV1, 0, 0)
	opts.GOP, opts.EntropyGeometry = 2, true
	wantWire, _, wantClouds := windowedEncode(t, opts, goldenFrames(t)[:2], 1)
	if ef, err := ParseFrame(wantWire[0]); err != nil || ef.Geometry[0] != 2 {
		t.Fatalf("the entropy-geometry I-frame is not a mode-2 chunk (err %v)", err)
	}
	for _, windows := range []int{2, 3, 8, 64} {
		wire, _, decoded := windowedEncode(t, opts, goldenFrames(t)[:2], windows)
		for i := range wire {
			if !bytes.Equal(wire[i], wantWire[i]) || !sameCloud(decoded[i], wantClouds[i]) {
				t.Errorf("entropy geometry, frame %d: %d windows give another stream or cloud than one", i, windows)
			}
		}
	}
	for _, tiles := range []int{4, 8} {
		opts := layerOpts(IntraInterV1, tiles, 0)
		var want [][]byte
		for _, windows := range []int{1, 3, 64} {
			for rep := 0; rep < 3; rep++ {
				got := encodeWindows(t, opts, goldenFrames(t)[:2], windows)
				if want == nil {
					want = got
				}
				for i := range got {
					if !bytes.Equal(got[i], want[i]) {
						t.Errorf("tiles=%d frame %d: stream differs between runs (windows=%d, run %d)", tiles, i, windows, rep)
					}
				}
			}
		}
	}
}

// encodeWindows encodes clouds as one GOP through the two phases, asking the
// attribute phase for the given window count, and returns the frames'
// attribute streams.
func encodeWindows(t *testing.T, opts Options, clouds []*geom.VoxelCloud, windows int) [][]byte {
	t.Helper()
	e := NewEncoder(dev(), opts)
	var out [][]byte
	for i, vc := range clouds {
		g, err := e.proposedGeometry(e.dev, vc)
		if err != nil {
			t.Fatal(err)
		}
		frame, _, err := e.proposedAttr(g, i > 0, windows)
		e.releaseGeom(g)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, frame.Attr)
	}
	return out
}

// checkWindowCounts holds an I + P pair coded at every window count to the
// one-window front ends' streams, and the I-frame's front-end reconstruction
// to the decoder's output.
func checkWindowCounts(t *testing.T, name string, opts Options, clouds []*geom.VoxelCloud) {
	t.Helper()
	// The front ends' input: the sorted, rescaled voxels the geometry phase
	// hands the attribute phase.
	e := NewEncoder(dev(), opts)
	var sorted [2][]geom.Voxel
	for i, vc := range clouds {
		g, err := e.proposedGeometry(e.dev, vc)
		if err != nil {
			t.Fatal(err)
		}
		sorted[i] = morton.Voxels(g.sorted)
		e.releaseGeom(g)
	}
	colors := make([]geom.Color, len(sorted[0]))
	for i, v := range sorted[0] {
		colors[i] = v.C
	}
	recon := make([]geom.Color, len(colors))
	wantI, err := attr.EncodeWith(dev(), colors, opts.IntraAttr, new(attr.Scratch), recon)
	if err != nil {
		t.Fatal(err)
	}
	ref := slices.Clone(sorted[0])
	for i := range ref {
		ref[i].C = recon[i]
	}
	wantP, _, err := interframe.EncodePWith(dev(), ref, sorted[1], opts.Inter, new(interframe.EncodeScratch))
	if err != nil {
		t.Fatal(err)
	}
	for _, windows := range []int{1, 2, 3, 8, 64} {
		got := encodeWindows(t, opts, clouds, windows)
		if !bytes.Equal(got[0], append([]byte{0}, wantI...)) {
			t.Errorf("%s: I-frame in %d windows is not the one-window stream", name, windows)
		}
		if !bytes.Equal(got[1], append([]byte{1}, wantP...)) {
			t.Errorf("%s: P-frame in %d windows is not the one-window stream", name, windows)
		}
	}
	enc, dec := NewEncoder(dev(), opts), NewDecoder(dev(), opts)
	ef, _, err := enc.EncodeFrame(clouds[0])
	if err != nil {
		t.Fatal(err)
	}
	vc, err := dec.DecodeFrame(ef)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vc.Voxels {
		if v.C != recon[i] {
			t.Fatalf("%s: the encoder's reconstruction of point %d is %v, the decoder returns %v", name, i, recon[i], v.C)
		}
	}
}

// TestFrameStatsSplitEqualsWhole: FrameStats is one number whichever entry
// point made it. An I and a P frame through EncodeFrame on one encoder and
// through EncodeGeometryOn + FinishFrame on another report the same stats for
// every frame shape — nothing runs after the attribute phase's snapshot that
// the split-phase total would miss.
func TestFrameStatsSplitEqualsWhole(t *testing.T) {
	clouds := goldenFrames(t)[:2]
	for _, d := range []Design{IntraOnly, IntraInterV1} {
		for _, tiles := range []int{0, 8} {
			for _, layers := range []int{0, 3} {
				for _, entropyOn := range []bool{false, true} {
					opts := layerOpts(d, tiles, layers)
					opts.EntropyGeometry = entropyOn
					whole, split := NewEncoder(dev(), opts), NewEncoder(dev(), opts)
					for i, vc := range clouds {
						_, want, err := whole.EncodeFrame(vc)
						if err != nil {
							t.Fatal(err)
						}
						g, err := split.EncodeGeometryOn(split.Device(), vc)
						if err != nil {
							t.Fatal(err)
						}
						_, got, err := split.FinishFrame(g)
						if err != nil {
							t.Fatal(err)
						}
						if got != want {
							t.Errorf("%v tiles=%d layers=%d entropy=%v frame %d:\n split %+v\n whole %+v", d, tiles, layers, entropyOn, i, got, want)
						}
					}
				}
			}
		}
	}
}

// windowedEncode encodes clouds as one GOP on an encoder that cuts an untiled
// frame into the given number of windows, and returns the frames' wire bytes,
// the encoder's ledger and the decoded clouds.
func windowedEncode(t *testing.T, opts Options, clouds []*geom.VoxelCloud, windows int) ([][]byte, []ledgerRow, []*geom.VoxelCloud) {
	t.Helper()
	enc, dec := NewEncoder(dev(), opts), NewDecoder(dev(), opts)
	enc.windows = windows
	var wires [][]byte
	var decoded []*geom.VoxelCloud
	for _, vc := range clouds {
		ef, _, err := enc.EncodeFrame(vc)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if _, err := ef.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		out, err := dec.DecodeFrame(ef)
		if err != nil {
			t.Fatal(err)
		}
		wires, decoded = append(wires, b.Bytes()), append(decoded, out)
	}
	return wires, ledgerOf(enc.Device()), decoded
}

// geometryWindowClouds returns the I + P pairs the geometry window tests
// encode: dense and sparse frames, 40 points, a cloud inside one cell of the
// sort's cut level, and a dense pair whose every cut-level cell holds
// duplicates of its first and last voxels — appended, in other colours, so
// that the sort's stability decides which one survives — whichever cell
// boundary a cut falls on.
func geometryWindowClouds(t *testing.T) map[string][]*geom.VoxelCloud {
	t.Helper()
	dense := frames(t, 2)
	spec, err := dataset.SpecByName("kitti-sparse")
	if err != nil {
		t.Fatal(err)
	}
	g := dataset.NewGenerator(spec, 0.05)
	out := map[string][]*geom.VoxelCloud{"dense": dense}
	for i := 0; i < 2; i++ {
		vc, err := g.Frame(i)
		if err != nil {
			t.Fatal(err)
		}
		out["sparse"] = append(out["sparse"], vc)
	}
	for _, vc := range dense {
		depth := vc.Depth
		out["40 points"] = append(out["40 points"], &geom.VoxelCloud{Depth: depth, Voxels: vc.Voxels[:40]})

		// One cut-level cell: every coordinate folded into the cell at 3·side.
		side := uint32(1) << (depth - morton.CellLevel(depth, 64))
		one := &geom.VoxelCloud{Depth: depth}
		for _, v := range vc.Voxels {
			v.X, v.Y, v.Z = 3*side+v.X%side, 3*side+v.Y%side, 3*side+v.Z%side
			one.Voxels = append(one.Voxels, v)
		}
		out["one cell"] = append(out["one cell"], one)

		shift := 3 * (depth - morton.CellLevel(depth, 2))
		ends := map[morton.Code][2]geom.Voxel{}
		for _, v := range vc.Voxels {
			c := morton.Encode(v.X, v.Y, v.Z)
			e, ok := ends[c>>shift]
			if !ok || c < morton.Encode(e[0].X, e[0].Y, e[0].Z) {
				e[0] = v
			}
			if !ok || c > morton.Encode(e[1].X, e[1].Y, e[1].Z) {
				e[1] = v
			}
			ends[c>>shift] = e
		}
		dups := &geom.VoxelCloud{Depth: depth, Voxels: slices.Clone(vc.Voxels)}
		for _, cell := range slices.Sorted(maps.Keys(ends)) {
			for _, v := range ends[cell] {
				v.C = geom.Color{R: ^v.C.R, G: v.C.G, B: ^v.C.B}
				dups.Voxels = append(dups.Voxels, v)
			}
		}
		out["duplicates at cuts"] = append(out["duplicates at cuts"], dups)
	}
	return out
}

// TestGeometryWindowCountInvariant: the sort's windows are not in the stream.
// An I + P pair encoded at 1, 2, 3, 8 and 64 windows gives the same wire
// bytes, the same ledger and the same decoded clouds — untiled and at 4 and 8
// tiles, at one layer and three, with the geometry entropy stage on and off,
// lossless and rescaled — on dense and sparse frames, 40 points, a cloud in
// one cut-level cell, and duplicate voxels on both sides of every cut.
func TestGeometryWindowCountInvariant(t *testing.T) {
	for name, clouds := range geometryWindowClouds(t) {
		n := clouds[0].Len()
		for _, tiles := range []int{0, 4, 8} {
			for _, layers := range []int{1, 3} {
				for _, entropyOn := range []bool{false, true} {
					for _, lossless := range []bool{false, true} {
						opts := OptionsFor(IntraInterV1)
						opts.GOP, opts.Tiles, opts.Layers = 2, tiles, layers
						opts.EntropyGeometry, opts.Lossless = entropyOn, lossless
						opts.IntraAttr.Segments, opts.Inter.Segments = max(n/25, 1), max(n/16, 1)
						opts.Inter.Candidates = 32
						what := fmt.Sprintf("%s, tiles %d, layers %d, entropy %v, lossless %v", name, tiles, layers, entropyOn, lossless)
						wantWire, wantLedger, wantClouds := windowedEncode(t, opts, clouds, 1)
						for _, windows := range []int{2, 3, 8, 64} {
							wire, ledger, decoded := windowedEncode(t, opts, clouds, windows)
							for i := range wire {
								if !bytes.Equal(wire[i], wantWire[i]) {
									t.Errorf("%s: frame %d at %d windows is not the one-window stream", what, i, windows)
								}
								if !sameCloud(decoded[i], wantClouds[i]) {
									t.Errorf("%s: frame %d at %d windows decodes to another cloud", what, i, windows)
								}
							}
							if !slices.Equal(ledger, wantLedger) {
								t.Errorf("%s: %d windows book\n%v\none window\n%v", what, windows, ledger, wantLedger)
							}
						}
					}
				}
			}
		}
	}
}

// TestEncodeRefusesHostileGeometry: what the geometry phase cannot code is an
// error from EncodeFrame at any window count, never a panic — a lossless
// voxel outside the 2^depth lattice, and depths 0 and 22 — untiled or tiled,
// lossless or rescaled.
func TestEncodeRefusesHostileGeometry(t *testing.T) {
	base := frames(t, 1)[0]
	outside := &geom.VoxelCloud{Depth: base.Depth, Voxels: slices.Clone(base.Voxels)}
	outside.Voxels[len(outside.Voxels)/2].Y = 1 << base.Depth
	cases := map[string]*geom.VoxelCloud{
		"voxel outside the lattice": outside,
		"depth 0":                   {Depth: 0, Voxels: base.Voxels},
		"depth 22":                  {Depth: 22, Voxels: base.Voxels},
	}
	for name, vc := range cases {
		for _, tiles := range []int{0, 4} {
			for _, lossless := range []bool{true, false} {
				if name == "voxel outside the lattice" && !lossless {
					continue // the rescale fits every voxel into the lattice
				}
				for _, windows := range []int{1, 64} {
					opts := scaledOpts(IntraInterV1, base.Len())
					opts.Tiles, opts.Lossless = tiles, lossless
					enc := NewEncoder(dev(), opts)
					enc.windows = windows
					func() {
						defer func() {
							if r := recover(); r != nil {
								t.Errorf("%s, tiles %d, lossless %v, %d windows: panic %v", name, tiles, lossless, windows, r)
							}
						}()
						if _, _, err := enc.EncodeFrame(vc); err == nil {
							t.Errorf("%s, tiles %d, lossless %v, %d windows: encoded", name, tiles, lossless, windows)
						}
					}()
				}
			}
		}
	}
}
