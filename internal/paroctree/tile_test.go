package paroctree

import (
	"crypto/sha256"
	"errors"
	"fmt"
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
	lv.Expand(dst, stream)
	return nil
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
		bounds := attr.SegmentBounds(len(leaves), tiles)
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
