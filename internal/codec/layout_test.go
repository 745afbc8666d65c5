package codec

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
)

// viewerFrame assembles the per-viewer frame the sender ships for the given
// tile masks and subscription, the long way round: the rewritten header,
// then every kept geometry span, then every kept attribute span. It returns
// the frame and the spans it kept, indexed u*cols+lay (nil = dropped).
func viewerFrame(l *FrameLayout, wire []byte, omit, coarse uint64, sub uint8) (frame []byte, geomKept, attrKept [][]byte) {
	cols := l.cols()
	keep := cols
	if l.Layered() && sub != 0 && int(sub) < keep {
		keep = int(sub)
	}
	geomKept = make([][]byte, l.LayerUnits()*cols)
	attrKept = make([][]byte, l.LayerUnits()*cols)
	frame = l.RewriteHeaderSub(wire, omit, coarse, sub)
	// A dropped unit ships nothing; one the encoder already omitted or
	// coarsened has empty spans to begin with.
	for _, stream := range []struct {
		span func([]byte, int, int) []byte
		drop uint64
		kept [][]byte
	}{{l.Geom, omit, geomKept}, {l.Attr, omit | coarse, attrKept}} {
		for u := 0; u < l.LayerUnits(); u++ {
			if len(l.Tiles) > 0 && stream.drop&(1<<uint(u)) != 0 {
				continue
			}
			for lay := 0; lay < keep; lay++ {
				stream.kept[u*cols+lay] = stream.span(wire, u, lay)
				frame = append(frame, stream.kept[u*cols+lay]...)
			}
		}
	}
	return frame, geomKept, attrKept
}

// syntheticFrame builds a container with the given shape around patterned
// payload bytes: the container layer never looks inside a span, so no
// encoder is needed to cover tile counts the encoder does not produce (one
// tile) or produces only from large clouds (64).
func syntheticFrame(tiles, layers int, rescale bool) *EncodedFrame {
	f := &EncodedFrame{Type: PFrame, Depth: 10, HasRescale: rescale}
	if rescale {
		f.Rescale.MinX, f.Rescale.ScaleX, f.Rescale.ScaleY, f.Rescale.ScaleZ = 7, 1<<16, 1<<17, 1<<18
	}
	units, cols := layerUnits(tiles), max(layers, 1)
	if layers > 0 {
		f.Layer = &LayerDir{Layers: uint8(layers), Sub: uint8(layers), BaseLevel: uint8(10 - layers + 1),
			Units: make([][]LayerSpan, units)}
	}
	f.Tiles = make([]TileInfo, tiles)
	for u := 0; u < units; u++ {
		var ug, ua uint32
		for lay := 0; lay < cols; lay++ {
			// Every geometry span non-empty (the layered validator wants the
			// mode byte); middle attribute layers empty, as the encoder leaves them.
			g, a := uint32(1+(u*7+lay*3)%11), uint32((u*5+lay)%9)
			if layers > 2 && lay > 0 && lay < cols-1 {
				a = 0
			}
			for i := uint32(0); i < g; i++ {
				f.Geometry = append(f.Geometry, byte(len(f.Geometry)*31+1))
			}
			for i := uint32(0); i < a; i++ {
				f.Attr = append(f.Attr, byte(len(f.Attr)*17+3))
			}
			if layers > 0 {
				f.Layer.Units[u] = append(f.Layer.Units[u], LayerSpan{GeomLen: g, AttrLen: a})
			}
			ug, ua = ug+g, ua+a
		}
		pts := uint32(10 + u)
		f.NumPoints += pts
		if tiles > 0 {
			f.Tiles[u] = TileInfo{Points: pts, GeomLen: ug, AttrLen: ua,
				Min: [3]uint32{uint32(u), 0, 1}, Max: [3]uint32{uint32(u) + 4, 9, 1}}
		}
	}
	return f
}

func serialize(t testing.TB, f *EncodedFrame) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLayoutCrossProduct holds the one span table to its contract over
// every container shape: parse, rewrite for a viewer (header + kept spans),
// parse the result again — its table must hold exactly the spans kept from
// the first, the dropped ones empty, the tile records carried over with the
// marks applied, and it must re-serialize to itself.
func TestLayoutCrossProduct(t *testing.T) {
	for _, tiles := range []int{0, 1, 4, 64} {
		for _, layers := range []int{0, 2, 3} {
			for _, rescale := range []bool{false, true} {
				t.Run(fmt.Sprintf("T%d/L%d/rescale=%v", tiles, layers, rescale), func(t *testing.T) {
					layoutCrossProductCase(t, tiles, layers, rescale)
				})
			}
		}
	}
}

func layoutCrossProductCase(t *testing.T, tiles, layers int, rescale bool) {
	f := syntheticFrame(tiles, layers, rescale)
	wire := serialize(t, f)
	_, l, err := parseHeader(wire)
	if err != nil {
		t.Fatalf("synthetic frame rejected: %v", err)
	}
	if plain := tiles == 0 && layers == 0; (ParseFrameLayout(wire) == nil) != plain {
		t.Fatalf("ParseFrameLayout nil=%v for plain=%v", !plain, plain)
	}
	inMem, err := f.Layout()
	if err != nil {
		t.Fatalf("in-memory layout: %v", err)
	}
	for i := 0; i < l.LayerUnits()*l.cols(); i++ {
		u, lay := i/l.cols(), i%l.cols()
		if !bytes.Equal(inMem.Geom(f.Geometry, u, lay), l.Geom(wire, u, lay)) ||
			!bytes.Equal(inMem.Attr(f.Attr, u, lay), l.Attr(wire, u, lay)) {
			t.Fatalf("span (%d,%d): in-memory table and wire table disagree", u, lay)
		}
	}
	top := uint(max(tiles, 1) - 1)
	masks := [][2]uint64{{0, 0}}
	if tiles > 0 {
		masks = append(masks, [2]uint64{1 << top, 0}, [2]uint64{0, 1 << top}, [2]uint64{1, 1 << top}, [2]uint64{1<<top | 1, 1 << top})
	}
	for _, m := range masks {
		for sub := 0; sub <= max(layers, 1); sub++ {
			omit, coarse := m[0], m[1]
			got, geomKept, attrKept := viewerFrame(l, wire, omit, coarse, uint8(sub))
			rf, l2, err := parseHeader(got)
			if err != nil || len(got) != l2.wireLen() {
				t.Fatalf("omit=%x coarse=%x sub=%d: rewritten frame rejected: %v", omit, coarse, sub, err)
			}
			rf.attach(got[l2.HeaderLen:], l2)
			if !bytes.Equal(serialize(t, rf), got) {
				t.Fatalf("omit=%x coarse=%x sub=%d: rewritten frame does not re-serialize to itself", omit, coarse, sub)
			}
			if l2.Layers != l.Layers || l2.BaseLevel != l.BaseLevel || len(l2.Tiles) != len(l.Tiles) {
				t.Fatalf("omit=%x coarse=%x sub=%d: table shape changed", omit, coarse, sub)
			}
			wantSub := layers
			if sub != 0 && sub < layers {
				wantSub = sub
			}
			if l2.Sub != wantSub {
				t.Fatalf("sub=%d: rewritten Sub %d, want %d", sub, l2.Sub, wantSub)
			}
			for i := range geomKept {
				u, lay := i/l.cols(), i%l.cols()
				if !bytes.Equal(l2.Geom(got, u, lay), geomKept[i]) || !bytes.Equal(l2.Attr(got, u, lay), attrKept[i]) {
					t.Fatalf("omit=%x coarse=%x sub=%d: span (%d,%d) differs from the span kept", omit, coarse, sub, u, lay)
				}
			}
			for u, ti := range l2.Tiles {
				bit := uint64(1) << uint(u)
				want := l.Tiles[u]
				want.GeomLen, want.AttrLen = ti.GeomLen, ti.AttrLen
				switch {
				case omit&bit != 0:
					want.Flags |= TileOmitted
				case coarse&bit != 0:
					want.Flags |= TileCoarse
				}
				if ti != want {
					t.Fatalf("omit=%x coarse=%x sub=%d: tile %d record %+v, want %+v", omit, coarse, sub, u, ti, want)
				}
				if ti.Omitted() && l2.GeomOff[(u+1)*l2.cols()] != l2.GeomOff[u*l2.cols()] {
					t.Fatalf("tile %d omitted but keeps geometry bytes", u)
				}
			}
		}
	}
}

// hostileLengths is a 19-byte plain container whose header claims a
// gigabyte of geometry and a gigabyte of attributes it does not carry.
var hostileLengths = []byte{'P', 'C', 'V', 'F', 0, 10, 0,
	0xe8, 0x03, 0, 0, // numPoints = 1000
	0, 0, 0, 0x40, // geomLen = 1<<30
	0, 0, 0, 0x40, // attrLen = 1<<30
}

// TestReadFrameHostileLengthsBoundedAlloc: a length field is a claim, not a
// licence to allocate. Both entry points must refuse the frame having
// allocated no more than the bytes that arrived plus a bounded chunk.
func TestReadFrameHostileLengthsBoundedAlloc(t *testing.T) {
	for name, parse := range map[string]func([]byte) (*EncodedFrame, error){
		"ReadFrameFrom": func(b []byte) (*EncodedFrame, error) { return ReadFrameFrom(bytes.NewReader(b)) },
		"ParseFrame":    ParseFrame,
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := parse(hostileLengths)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadContainer) {
			t.Errorf("%s: got %v, want ErrBadContainer", name, err)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Errorf("%s: allocated %d bytes for a 19-byte input", name, d)
		}
	}
}

// TestContainerRejectionsTyped: every single-field header violation is
// refused by all three entry points, and as ErrBadContainer.
func TestContainerRejectionsTyped(t *testing.T) {
	plain := serialize(t, &EncodedFrame{Type: IFrame, Depth: 10, NumPoints: 1, Geometry: []byte{0}, Attr: []byte{0}})
	tiled := serialize(t, syntheticFrame(4, 0, false))
	tileCount := fixedHeaderSize // no rescale block: the u16 count follows the fixed prefix
	for _, tc := range []struct {
		name string
		wire []byte
		off  int
		val  byte
	}{
		{"frame type 2", plain, 4, 2},
		{"depth 0", plain, 5, 0},
		{"depth 22", plain, 5, 22},
		{"reserved flag bits", plain, 6, 0xF8},
		{"tile count 0", tiled, tileCount, 0},
		{"tile count 65", tiled, tileCount, 65},
	} {
		if _, err := ParseFrame(tc.wire); err != nil {
			t.Fatalf("%s: unmutated frame rejected: %v", tc.name, err)
		}
		mut := append([]byte(nil), tc.wire...)
		mut[tc.off] = tc.val
		if _, err := ReadFrameFrom(bytes.NewReader(mut)); !errors.Is(err, ErrBadContainer) {
			t.Errorf("%s: ReadFrameFrom returned %v, want ErrBadContainer", tc.name, err)
		}
		if _, err := ParseFrame(mut); !errors.Is(err, ErrBadContainer) {
			t.Errorf("%s: ParseFrame returned %v, want ErrBadContainer", tc.name, err)
		}
		if ParseFrameLayout(mut) != nil {
			t.Errorf("%s: ParseFrameLayout accepted it", tc.name)
		}
	}
}
