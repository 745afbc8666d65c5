package codec

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/dataset"
	"repro/internal/edgesim"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/morton"
)

func dev() *edgesim.Device { return edgesim.NewXavier(edgesim.Mode15W) }

// testVideo caches a few small frames of a Table I preset.
var testFrames []*geom.VoxelCloud

func frames(t testing.TB, n int) []*geom.VoxelCloud {
	t.Helper()
	if len(testFrames) >= n {
		return testFrames[:n]
	}
	spec, err := dataset.SpecByName("redandblack")
	if err != nil {
		t.Fatal(err)
	}
	g := dataset.NewGenerator(spec, 0.02)
	for i := len(testFrames); i < n; i++ {
		vc, err := g.Frame(i)
		if err != nil {
			t.Fatal(err)
		}
		testFrames = append(testFrames, vc)
	}
	return testFrames[:n]
}

// sortedReference Morton-sorts and dedups a frame, the canonical order the
// decoders emit.
func sortedReference(vc *geom.VoxelCloud) *geom.VoxelCloud {
	k := morton.EncodeCloud(vc)
	morton.Sort(k)
	k = morton.Dedup(k)
	return &geom.VoxelCloud{Depth: vc.Depth, Voxels: morton.Voxels(k)}
}

// scaledOpts shrinks the paper's segment counts to the test frame sizes
// (30000/50000 segments for ~15k-point test frames would put one point per
// block).
func scaledOpts(d Design, points int) Options {
	o := OptionsFor(d)
	o.IntraAttr.Segments = points / 25
	o.Inter.Segments = points / 16
	o.Inter.Candidates = 32
	return o
}

func roundTrip(t *testing.T, design Design) (orig, decoded []*geom.VoxelCloud, stats []FrameStats) {
	t.Helper()
	fs := frames(t, 3)
	enc := NewEncoder(dev(), scaledOpts(design, fs[0].Len()))
	dec := NewDecoder(dev(), enc.Options())
	for _, vc := range fs {
		ef, st, err := enc.EncodeFrame(vc)
		if err != nil {
			t.Fatalf("%v encode: %v", design, err)
		}
		// Serialize through the container to exercise the wire format.
		var buf bytes.Buffer
		if _, err := ef.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		ef2, err := ReadFrameFrom(&buf)
		if err != nil {
			t.Fatal(err)
		}
		out, err := dec.DecodeFrame(ef2)
		if err != nil {
			t.Fatalf("%v decode: %v", design, err)
		}
		orig = append(orig, vc)
		decoded = append(decoded, out)
		stats = append(stats, st)
	}
	return orig, decoded, stats
}

func quality(t *testing.T, orig, decoded []*geom.VoxelCloud) (geoPSNR, attrPSNR float64) {
	t.Helper()
	geoPSNR, attrPSNR = 1e9, 0
	var attrSum float64
	for i := range orig {
		g, err := metrics.GeometryPSNR(orig[i], decoded[i])
		if err != nil {
			t.Fatal(err)
		}
		if g < geoPSNR {
			geoPSNR = g
		}
		// Attribute PSNR needs aligned point orders; compare against the
		// sorted original when geometry is lossless, else skip.
		ref := sortedReference(orig[i])
		if ref.Len() == decoded[i].Len() {
			same := true
			for j := range ref.Voxels {
				if ref.Voxels[j].X != decoded[i].Voxels[j].X ||
					ref.Voxels[j].Y != decoded[i].Voxels[j].Y ||
					ref.Voxels[j].Z != decoded[i].Voxels[j].Z {
					same = false
					break
				}
			}
			if same {
				oc := make([]geom.Color, ref.Len())
				dc := make([]geom.Color, ref.Len())
				for j := range ref.Voxels {
					oc[j] = ref.Voxels[j].C
					dc[j] = decoded[i].Voxels[j].C
				}
				_, rgb, err := metrics.AttributePSNR(oc, dc)
				if err != nil {
					t.Fatal(err)
				}
				attrSum += rgb
			}
		}
	}
	return geoPSNR, attrSum / float64(len(orig))
}

func TestTMC13RoundTripLossless(t *testing.T) {
	orig, decoded, stats := roundTrip(t, TMC13)
	for i := range orig {
		// TMC13's geometry is lossless: decoded = sorted original.
		ref := sortedReference(orig[i])
		if decoded[i].Len() != ref.Len() {
			t.Fatalf("frame %d: %d points, want %d", i, decoded[i].Len(), ref.Len())
		}
		for j := range ref.Voxels {
			if ref.Voxels[j].X != decoded[i].Voxels[j].X ||
				ref.Voxels[j].Y != decoded[i].Voxels[j].Y ||
				ref.Voxels[j].Z != decoded[i].Voxels[j].Z {
				t.Fatalf("frame %d voxel %d: geometry not lossless", i, j)
			}
		}
		if stats[i].Type != IFrame {
			t.Error("TMC13 frames are all intra")
		}
	}
	_, attrPSNR := quality(t, orig, decoded)
	// QStep 1 RAHT is near-lossless (~55 dB in the paper).
	if attrPSNR < 45 {
		t.Fatalf("TMC13 attribute PSNR %.1f dB, want >= 45", attrPSNR)
	}
}

func TestProposedRoundTripQuality(t *testing.T) {
	orig, decoded, _ := roundTrip(t, IntraOnly)
	geoPSNR, attrPSNR := quality(t, orig, decoded)
	// Paper: geometry PSNR stays > 70 dB despite the rescale loss.
	if geoPSNR < 60 {
		t.Fatalf("IntraOnly geometry PSNR %.1f dB, want >= 60", geoPSNR)
	}
	_ = attrPSNR // attribute comparison requires identical geometry; covered below
}

func TestIntraOnlyLosslessModeBitExact(t *testing.T) {
	fs := frames(t, 1)
	o := scaledOpts(IntraOnly, fs[0].Len())
	o.Lossless = true
	o.IntraAttr.QStep = 1
	enc := NewEncoder(dev(), o)
	dec := NewDecoder(dev(), o)
	ef, _, err := enc.EncodeFrame(fs[0])
	if err != nil {
		t.Fatal(err)
	}
	out, err := dec.DecodeFrame(ef)
	if err != nil {
		t.Fatal(err)
	}
	ref := sortedReference(fs[0])
	if out.Len() != ref.Len() {
		t.Fatalf("points %d != %d", out.Len(), ref.Len())
	}
	for j := range ref.Voxels {
		if ref.Voxels[j] != out.Voxels[j] {
			t.Fatalf("voxel %d: %v != %v", j, out.Voxels[j], ref.Voxels[j])
		}
	}
}

func TestInterDesignsGOPStructure(t *testing.T) {
	for _, design := range []Design{CWIPC, IntraInterV1, IntraInterV2} {
		_, _, stats := roundTrip(t, design)
		if stats[0].Type != IFrame {
			t.Errorf("%v: first frame must be I", design)
		}
		if stats[1].Type != PFrame || stats[2].Type != PFrame {
			t.Errorf("%v: IPP structure expected, got %v %v %v",
				design, stats[0].Type, stats[1].Type, stats[2].Type)
		}
	}
}

func TestInterDesignsDecodeQuality(t *testing.T) {
	for _, design := range []Design{IntraInterV1, IntraInterV2} {
		orig, decoded, stats := roundTrip(t, design)
		geoPSNR, _ := quality(t, orig, decoded)
		if geoPSNR < 60 {
			t.Errorf("%v geometry PSNR %.1f", design, geoPSNR)
		}
		// P-frames must record reuse stats.
		if stats[1].Inter.Blocks == 0 {
			t.Errorf("%v: P-frame has no block stats", design)
		}
	}
}

func TestV2ReusesMoreThanV1(t *testing.T) {
	_, _, st1 := roundTrip(t, IntraInterV1)
	_, _, st2 := roundTrip(t, IntraInterV2)
	r1 := st1[1].Inter.ReuseFraction() + st1[2].Inter.ReuseFraction()
	r2 := st2[1].Inter.ReuseFraction() + st2[2].Inter.ReuseFraction()
	if r2 < r1 {
		t.Fatalf("V2 reuse %.2f < V1 reuse %.2f", r2, r1)
	}
}

func TestProposedFasterThanBaselines(t *testing.T) {
	_, _, stTM := roundTrip(t, TMC13)
	_, _, stIO := roundTrip(t, IntraOnly)
	var tmTotal, ioTotal float64
	for i := range stTM {
		tmTotal += stTM[i].TotalTime.Seconds()
		ioTotal += stIO[i].TotalTime.Seconds()
	}
	ratio := tmTotal / ioTotal
	// Full-scale frames give ~43x; at 2% scale overheads bite, but the
	// speedup must still be large.
	if ratio < 8 {
		t.Fatalf("IntraOnly speedup over TMC13 = %.1fx, want >= 8x", ratio)
	}
}

func TestProposedCheaperEnergy(t *testing.T) {
	_, _, stTM := roundTrip(t, TMC13)
	_, _, stIO := roundTrip(t, IntraOnly)
	var tmE, ioE float64
	for i := range stTM {
		tmE += stTM[i].EnergyJ
		ioE += stIO[i].EnergyJ
	}
	saving := 1 - ioE/tmE
	if saving < 0.8 {
		t.Fatalf("energy saving = %.2f, want >= 0.8 (paper: 0.966)", saving)
	}
}

func TestInterImprovesCompression(t *testing.T) {
	_, _, stIO := roundTrip(t, IntraOnly)
	_, _, stV2 := roundTrip(t, IntraInterV2)
	var ioBytes, v2Bytes int64
	for i := range stIO {
		ioBytes += stIO[i].SizeBytes
		v2Bytes += stV2[i].SizeBytes
	}
	if v2Bytes >= ioBytes {
		t.Fatalf("inter V2 %d bytes >= intra-only %d bytes", v2Bytes, ioBytes)
	}
}

func TestEntropyGeometryAblation(t *testing.T) {
	fs := frames(t, 1)
	base := scaledOpts(IntraOnly, fs[0].Len())

	encPlain := NewEncoder(dev(), base)
	efPlain, stPlain, err := encPlain.EncodeFrame(fs[0])
	if err != nil {
		t.Fatal(err)
	}

	withEnt := base
	withEnt.EntropyGeometry = true
	encEnt := NewEncoder(dev(), withEnt)
	efEnt, stEnt, err := encEnt.EncodeFrame(fs[0])
	if err != nil {
		t.Fatal(err)
	}

	if len(efEnt.Geometry) >= len(efPlain.Geometry) {
		t.Fatalf("entropy geometry %d >= plain %d bytes", len(efEnt.Geometry), len(efPlain.Geometry))
	}
	if stEnt.TotalTime <= stPlain.TotalTime {
		t.Fatalf("entropy stage must cost time: %v <= %v", stEnt.TotalTime, stPlain.TotalTime)
	}
	// Both must decode to the same geometry.
	a, err := NewDecoder(dev(), base).DecodeFrame(efPlain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDecoder(dev(), withEnt).DecodeFrame(efEnt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatal("ablation variants decode differently")
	}
	for i := range a.Voxels {
		if a.Voxels[i].X != b.Voxels[i].X || a.Voxels[i].Y != b.Voxels[i].Y || a.Voxels[i].Z != b.Voxels[i].Z {
			t.Fatalf("voxel %d differs", i)
		}
	}
}

func TestContainerRoundTrip(t *testing.T) {
	f := &EncodedFrame{
		Type:      PFrame,
		Depth:     10,
		NumPoints: 12345,
		Geometry:  []byte{1, 2, 3},
		Attr:      []byte{4, 5},
	}
	var buf bytes.Buffer
	n, err := f.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) || n != f.Size() {
		t.Fatalf("WriteTo n=%d buf=%d Size=%d", n, buf.Len(), f.Size())
	}
	g, err := ReadFrameFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.Type != f.Type || g.Depth != f.Depth || g.NumPoints != f.NumPoints ||
		!bytes.Equal(g.Geometry, f.Geometry) || !bytes.Equal(g.Attr, f.Attr) || g.HasRescale {
		t.Fatalf("round trip mismatch: %+v", g)
	}
}

func TestContainerRescaleRoundTrip(t *testing.T) {
	f := &EncodedFrame{
		Type: IFrame, Depth: 10, NumPoints: 1,
		HasRescale: true,
	}
	f.Rescale.MinX, f.Rescale.MinY, f.Rescale.MinZ = 7, 8, 9
	f.Rescale.ScaleX, f.Rescale.ScaleY, f.Rescale.ScaleZ = 1<<17, 1<<16, 3<<15
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := ReadFrameFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasRescale || g.Rescale != f.Rescale {
		t.Fatalf("rescale mismatch: %+v", g.Rescale)
	}
}

func TestContainerErrors(t *testing.T) {
	if _, err := ReadFrameFrom(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("empty reader: %v, want EOF", err)
	}
	if _, err := ReadFrameFrom(bytes.NewReader([]byte("XXXXxxxxxxx"))); err == nil {
		t.Error("bad magic must fail")
	}
	f := &EncodedFrame{Type: IFrame, Depth: 10, NumPoints: 1, Geometry: []byte{1}, Attr: []byte{2}}
	var buf bytes.Buffer
	f.WriteTo(&buf)
	raw := buf.Bytes()
	if _, err := ReadFrameFrom(bytes.NewReader(raw[:len(raw)-1])); err == nil {
		t.Error("truncated frame must fail")
	}
	// Corrupt type.
	bad := append([]byte{}, raw...)
	bad[4] = 9
	if _, err := ReadFrameFrom(bytes.NewReader(bad)); err == nil {
		t.Error("bad type must fail")
	}
	// Corrupt depth.
	bad = append([]byte{}, raw...)
	bad[5] = 0
	if _, err := ReadFrameFrom(bytes.NewReader(bad)); err == nil {
		t.Error("bad depth must fail")
	}
}

func TestPFrameWithoutReferenceFails(t *testing.T) {
	fs := frames(t, 2)
	enc := NewEncoder(dev(), scaledOpts(IntraInterV1, fs[0].Len()))
	ef0, _, err := enc.EncodeFrame(fs[0])
	if err != nil {
		t.Fatal(err)
	}
	ef1, _, err := enc.EncodeFrame(fs[1])
	if err != nil {
		t.Fatal(err)
	}
	if ef1.Type != PFrame {
		t.Fatal("second frame should be P")
	}
	dec := NewDecoder(dev(), enc.Options())
	if _, err := dec.DecodeFrame(ef1); err == nil {
		t.Fatal("P before I must fail")
	}
	if _, err := dec.DecodeFrame(ef0); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.DecodeFrame(ef1); err != nil {
		t.Fatalf("P after I: %v", err)
	}
}

func TestEncoderReset(t *testing.T) {
	fs := frames(t, 2)
	enc := NewEncoder(dev(), scaledOpts(IntraInterV1, fs[0].Len()))
	if _, _, err := enc.EncodeFrame(fs[0]); err != nil {
		t.Fatal(err)
	}
	enc.Reset()
	ef, _, err := enc.EncodeFrame(fs[1])
	if err != nil {
		t.Fatal(err)
	}
	if ef.Type != IFrame {
		t.Fatal("frame after Reset must be I")
	}
}

func TestEmptyFrameRejected(t *testing.T) {
	enc := NewEncoder(dev(), OptionsFor(IntraOnly))
	if _, _, err := enc.EncodeFrame(&geom.VoxelCloud{Depth: 10}); err != ErrEmptyFrame {
		t.Fatalf("err = %v, want ErrEmptyFrame", err)
	}
}

// A depth the container cannot carry must be refused at encode, by the
// untiled and the tiled encoder alike: the untiled one used to succeed at
// depth 0 and 22 and emit a frame ReadFrameFrom rejects ("bad depth").
func TestEncodeDepthRangeRejected(t *testing.T) {
	for _, depth := range []uint{0, 22} {
		for _, tiles := range []int{0, 4} {
			opts := OptionsFor(IntraOnly)
			opts.Tiles = tiles
			vc := &geom.VoxelCloud{Depth: depth, Voxels: []geom.Voxel{{X: 0}, {X: 1}}}
			if _, _, err := NewEncoder(dev(), opts).EncodeFrame(vc); err == nil {
				t.Errorf("depth %d tiles %d: EncodeFrame accepted an out-of-range depth", depth, tiles)
			}
		}
	}
}

func TestDesignStrings(t *testing.T) {
	want := map[Design]string{
		TMC13: "TMC13", CWIPC: "CWIPC", IntraOnly: "Intra-Only",
		IntraInterV1: "Intra-Inter-V1", IntraInterV2: "Intra-Inter-V2",
	}
	for d, s := range want {
		if d.String() != s {
			t.Errorf("%d.String() = %q, want %q", d, d.String(), s)
		}
	}
	if len(Designs()) != 5 {
		t.Error("five designs")
	}
	if TMC13.UsesInter() || !CWIPC.UsesInter() || !IntraInterV1.UsesInter() {
		t.Error("UsesInter flags")
	}
}

func TestStageLatencySplit(t *testing.T) {
	fs := frames(t, 1)
	enc := NewEncoder(dev(), scaledOpts(IntraOnly, fs[0].Len()))
	_, st, err := enc.EncodeFrame(fs[0])
	if err != nil {
		t.Fatal(err)
	}
	if st.GeometryTime <= 0 || st.AttrTime <= 0 {
		t.Fatalf("stage split missing: geo=%v attr=%v", st.GeometryTime, st.AttrTime)
	}
	if st.TotalTime < st.GeometryTime+st.AttrTime {
		t.Fatalf("total %v < geo+attr %v", st.TotalTime, st.GeometryTime+st.AttrTime)
	}
}

// ForceIFrame reports whether the call armed the restart: concurrent
// refresh requests between two encodes coalesce into one GOP restart.
func TestForceIFrameCoalesces(t *testing.T) {
	e := NewEncoder(dev(), OptionsFor(IntraInterV1))
	if !e.ForceIFrame() {
		t.Fatal("first ForceIFrame must arm the restart")
	}
	if e.ForceIFrame() {
		t.Fatal("second ForceIFrame must coalesce into the pending restart")
	}
	fs := frames(t, 3)
	for i, f := range fs {
		want := IFrame // frame 0 consumes the restart
		if i > 0 {
			want = PFrame // the restart must not leak into later frames
		}
		if _, st, err := e.EncodeFrame(f); err != nil {
			t.Fatal(err)
		} else if st.Type != want {
			t.Fatalf("frame %d type %v, want %v", i, st.Type, want)
		}
	}
	if !e.ForceIFrame() {
		t.Fatal("ForceIFrame after the restart landed must arm again")
	}
	if _, st, err := e.EncodeFrame(fs[0]); err != nil {
		t.Fatal(err)
	} else if st.Type != IFrame {
		t.Fatalf("forced frame type %v, want I", st.Type)
	}
}
