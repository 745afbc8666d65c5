package paroctree

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/attr"
	"repro/internal/morton"
)

// DeserializeSerial is a whole-stream decode into a caller's window as the
// codec's unit body runs it — sizing pass, then a stream that ends behind its
// last level and holds exactly len(dst) leaves, then the expander — for the
// tests that hold the windowed decode to the fresh-column front ends.
func DeserializeSerial(dst []morton.Code, stream []byte, depth uint) error {
	lv, err := ScanLevels(stream, depth, depth)
	if err != nil {
		return err
	}
	if lv.Prefix != len(stream) || lv.Nodes() != len(dst) {
		return fmt.Errorf("%w: %d leaves over %d of %d bytes, want %d", ErrBadStream, lv.Nodes(), lv.Prefix, len(stream), len(dst))
	}
	lv.Expand(dst, stream, 0)
	return nil
}

// expandWindows scans stream to level cut into the given number of windows,
// no deeper than base, and expands every window into its range of one
// column, checking that the ranges tile the level in order.
func expandWindows(t testing.TB, stream []byte, depth, level, base uint, windows int) ([]morton.Code, error) {
	t.Helper()
	var lv Levels
	if err := lv.Scan(stream, depth, level, base, windows); err != nil {
		return nil, err
	}
	if lv.cut > min(base, lv.level) {
		t.Fatalf("cut at level %d, below base %d", lv.cut, base)
	}
	codes := make([]morton.Code, lv.Nodes())
	next := 0
	for w := 0; w < windows; w++ {
		lo, hi := lv.Window(w, lv.level)
		if lo != next || hi < lo {
			t.Fatalf("window %d of %d covers [%d,%d), want it from %d", w, windows, lo, hi, next)
		}
		lv.Expand(codes[lo:hi], stream, w)
		next = hi
	}
	if next != len(codes) {
		t.Fatalf("%d windows cover %d of %d nodes", windows, next, len(codes))
	}
	return codes, nil
}

// TestExpandWindowsMatchWhole: however a stream is cut into windows — more
// windows than nodes, a cut forced up to a shallow base, every level, the
// empty stream — the windows expand to the one-window column, and a stream
// the one-window pass refuses is refused with the same error.
func TestExpandWindowsMatchWhole(t *testing.T) {
	d := dev()
	for _, n := range []int{1, 40, 3000} {
		vc := randomCloud(int64(n), n, 8)
		br, err := Build(d, vc)
		if err != nil {
			t.Fatal(err)
		}
		stream := br.Tree.Serialize(d)
		for level := uint(0); level <= 8; level++ {
			want, err := DeserializeLoD(d, stream, 8, level)
			if err != nil {
				t.Fatal(err)
			}
			for _, windows := range []int{1, 2, 3, 8, 64} {
				for _, base := range []uint{2, 5, level} {
					got, err := expandWindows(t, stream, 8, level, base, windows)
					if err != nil || !slices.Equal(got, want.Codes) {
						t.Fatalf("n=%d level %d base %d: %d windows expand to %d codes (%v), want %d", n, level, base, windows, len(got), err, len(want.Codes))
					}
				}
			}
		}
		for _, bad := range [][]byte{stream[:len(stream)/2], append(bytes.Clone(stream[:len(stream)-1]), 0)} {
			_, want := ScanLevels(bad, 8, 8)
			if _, err := expandWindows(t, bad, 8, 8, 8, 3); want == nil || err == nil || err.Error() != want.Error() {
				t.Fatalf("n=%d: broken stream refused with %v by 3 windows, %v by one", n, err, want)
			}
		}
	}
	for _, windows := range []int{1, 3} {
		if got, err := expandWindows(t, nil, 8, 8, 8, windows); err != nil || len(got) != 0 {
			t.Fatalf("the empty stream in %d windows: %d codes, %v", windows, len(got), err)
		}
	}
}

// TestSerializeGolden pins the stream bytes of the full-leaf-set sweep for
// fixed seeded clouds, through both front ends (Build + Serialize, and one
// tile over every leaf — a T=1 "tiled" stream is the untiled stream). The
// hashes are SHA-256 of Build + Serialize at the commit before the two
// builders became one.
func TestSerializeGolden(t *testing.T) {
	d := dev()
	for _, g := range []struct {
		n, bytes int
		sha      string
	}{
		{1, 10, "097bc79a9a50106d54c718f38bfe490b43561eebcf9e6ef5b2d53240d31c9496"},
		{7, 61, "31609fa37f1ee16906f0ae69680bacf782a52ee540aa74f526dc3e8b17ecb8d4"},
		{500, 3357, "d52128cede49f67f9aab3687779cdf02045ca411cc89c100655e3769bb16d901"},
		{20000, 98784, "e772f3521992f439c451a51e8ba9ce59153169f90fd7fa6a3aff821b31b4e2b4"},
	} {
		vc := randomCloud(int64(g.n), g.n, 10)
		br, err := Build(d, vc)
		if err != nil {
			t.Fatal(err)
		}
		var s TileScratch
		tile, err := s.SerializeSubtree(br.Tree.Leaves(), vc.Depth, nil)
		if err != nil {
			t.Fatal(err)
		}
		for name, stream := range map[string][]byte{"Serialize": br.Tree.Serialize(d), "SerializeSubtree": tile} {
			if got := fmt.Sprintf("%x", sha256.Sum256(stream)); len(stream) != g.bytes || got != g.sha {
				t.Errorf("n=%d %s: %d bytes sha %s, want %d bytes sha %s", g.n, name, len(stream), got, g.bytes, g.sha)
			}
		}
	}
}

// TestSubtreeTilesRoundTrip splits the sorted leaves into contiguous
// Morton-range tiles, serializes each independently, and checks that
// decoding the tiles (with both decoders) and concatenating reproduces
// the full leaf set exactly.
func TestSubtreeTilesRoundTrip(t *testing.T) {
	d := dev()
	vc := randomCloud(42, 30000, 10)
	br, err := Build(d, vc)
	if err != nil {
		t.Fatal(err)
	}
	leaves := br.Tree.Leaves()
	for _, tiles := range []int{2, 3, 8} {
		bounds := attr.SegmentBoundsIn(nil, len(leaves), tiles)
		var s TileScratch
		var got []uint64
		for ti := 0; ti < tiles; ti++ {
			lo, hi := bounds[ti], bounds[ti+1]
			if lo == hi {
				continue
			}
			stream, err := s.SerializeSubtree(leaves[lo:hi], vc.Depth, nil)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := Deserialize(d, stream, vc.Depth)
			if err != nil {
				t.Fatalf("tiles=%d tile %d: %v", tiles, ti, err)
			}
			ser := make([]morton.Code, hi-lo)
			if err := DeserializeSerial(ser, stream, vc.Depth); err != nil {
				t.Fatalf("tiles=%d tile %d serial: %v", tiles, ti, err)
			}
			if err := DeserializeSerial(ser[1:], stream, vc.Depth); !errors.Is(err, ErrBadStream) {
				t.Fatalf("tiles=%d tile %d: a column one code short: %v, want ErrBadStream", tiles, ti, err)
			}
			if len(dec) != len(ser) {
				t.Fatalf("decoder mismatch: %d vs %d codes", len(dec), len(ser))
			}
			for i := range dec {
				if dec[i] != ser[i] {
					t.Fatalf("decoder mismatch at %d", i)
				}
			}
			if len(dec) != hi-lo {
				t.Fatalf("tiles=%d tile %d: decoded %d codes, want %d", tiles, ti, len(dec), hi-lo)
			}
			for _, c := range dec {
				got = append(got, uint64(c))
			}
		}
		if len(got) != len(leaves) {
			t.Fatalf("tiles=%d: %d total codes, want %d", tiles, len(got), len(leaves))
		}
		for i, c := range leaves {
			if uint64(c) != got[i] {
				t.Fatalf("tiles=%d: code %d differs", tiles, i)
			}
		}
	}
}

func TestSerializeSubtreeErrors(t *testing.T) {
	var s TileScratch
	if _, err := s.SerializeSubtree(nil, 10, nil); err == nil {
		t.Fatal("empty leaves must error")
	}
	if _, err := s.SerializeSubtree([]morton.Code{3, 2}, 10, nil); err == nil {
		t.Fatal("descending leaves must error")
	}
	if _, err := s.SerializeSubtree([]morton.Code{1}, 0, nil); err == nil {
		t.Fatal("depth 0 must error")
	}
	if err := DeserializeSerial(nil, []byte{0}, 1); err == nil {
		t.Fatal("zero mask must error")
	}
	if err := DeserializeSerial(make([]morton.Code, 1), []byte{1, 1}, 1); err == nil {
		t.Fatal("trailing bytes must error")
	}
}
