// Command gencorpus regenerates the checked-in seed corpora for the
// repository's fuzz targets (testdata/fuzz/<FuzzTarget>/ in each fuzzed
// package). Each corpus entry is a REAL stream produced by the matching
// encoder — a valid container, attribute stream, entropy stream, P-frame
// stream, or framed packet — plus a few deliberately damaged variants, so
// `go test -fuzz` and the CI fuzz smoke start from deep, structurally
// meaningful inputs instead of empty bytes.
//
// The generator is deterministic: running it twice produces identical
// files. Usage (from the repository root):
//
//	go run ./cmd/gencorpus
package main

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/attr"
	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/edgesim"
	"repro/internal/entropy"
	"repro/internal/geom"
	"repro/internal/interframe"
	"repro/internal/morton"
	"repro/pcc/stream"
)

var root = flag.String("root", ".", "repository root to write testdata under")

// writeCorpus writes entries as Go fuzz corpus files (format "go test fuzz
// v1") named seed-000, seed-001, … under dir, replacing existing seeds.
func writeCorpus(dir string, entries [][]byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, data := range entries {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		name := filepath.Join(dir, fmt.Sprintf("seed-%03d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("%-55s %d entries\n", dir, len(entries))
	return nil
}

func dev() *edgesim.Device { return edgesim.NewXavier(edgesim.Mode15W) }

// corrupt returns a copy of b with one byte XORed — a damaged sibling for
// every healthy seed, so the fuzzer starts on both sides of the fence.
func corrupt(b []byte, at int, mask byte) []byte {
	c := append([]byte(nil), b...)
	if len(c) > 0 {
		c[at%len(c)] ^= mask
	}
	return c
}

// videoFrames encodes n frames of the loot sequence at a tiny scale.
func videoFrames(n int) []*geom.VoxelCloud {
	spec, err := dataset.SpecByName("loot")
	if err != nil {
		log.Fatal(err)
	}
	g := dataset.NewGenerator(spec, 0.004)
	out := make([]*geom.VoxelCloud, n)
	for i := range out {
		if out[i], err = g.Frame(i); err != nil {
			log.Fatal(err)
		}
	}
	return out
}

// codecCorpus: serialized .pcv frame containers (I and P, two designs).
func codecCorpus() [][]byte {
	var entries [][]byte
	fs := videoFrames(2)
	for _, d := range []codec.Design{codec.IntraInterV1, codec.TMC13} {
		opts := codec.OptionsFor(d)
		opts.IntraAttr.Segments = 32
		opts.Inter.Segments = 48
		opts.Inter.Candidates = 8
		enc := codec.NewEncoder(dev(), opts)
		for _, f := range fs {
			ef, _, err := enc.EncodeFrame(f)
			if err != nil {
				log.Fatal(err)
			}
			var buf bytes.Buffer
			if _, err := ef.WriteTo(&buf); err != nil {
				log.Fatal(err)
			}
			entries = append(entries, buf.Bytes())
		}
	}
	full := entries[0]
	entries = append(entries,
		full[:len(full)/2],     // truncated mid-payload
		corrupt(full, 2, 0xFF), // frame-type byte damage
		corrupt(full, len(full)-4, 0x10),
		// A plain 19-byte header claiming 1 GiB of geometry and of
		// attributes it does not carry: the reader must not size a buffer
		// from either field.
		[]byte("PCVF\x00\x0a\x00\xe8\x03\x00\x00\x00\x00\x00\x40\x00\x00\x00\x40"),
	)
	return entries
}

// frameCorpus: whole frames whose geometry chunk is mode 2 — entropy-coded
// as equal slices, which takes over entropy.SliceBytes of raw occupancy bytes
// — for the frame decoder: a healthy I-frame, then the same frame with its
// chunk's raw length declared 0, a slice length damaged, the last slice cut
// short and a bit flipped inside a slice. The thin frames the fuzz target
// seeds itself with are all under the slice bound.
func frameCorpus() [][]byte {
	spec, err := dataset.SpecByName("redandblack")
	if err != nil {
		log.Fatal(err)
	}
	vc, err := dataset.NewGenerator(spec, 0.02).Frame(0)
	if err != nil {
		log.Fatal(err)
	}
	opts := codec.OptionsFor(codec.IntraInterV1)
	opts.IntraAttr.Segments = vc.Len() / 25
	opts.IntraAttr.QStep = 8
	opts.IntraAttr.Entropy = true
	opts.EntropyGeometry = true
	ef, _, err := codec.NewEncoder(dev(), opts).EncodeFrame(vc)
	if err != nil {
		log.Fatal(err)
	}
	if ef.Geometry[0] != 2 {
		log.Fatalf("frame corpus: geometry chunk is mode %d, not 2", ef.Geometry[0])
	}
	wire := func(geometry []byte) []byte {
		f := *ef
		f.Geometry = geometry
		var buf bytes.Buffer
		if _, err := f.WriteTo(&buf); err != nil {
			log.Fatal(err)
		}
		return buf.Bytes()
	}
	g := ef.Geometry
	_, k := binary.Uvarint(g[1:])
	zero := append([]byte{2, 0}, g[1+k:]...)
	return [][]byte{
		wire(g),
		wire(zero),
		wire(corrupt(g, 1+k, 0x40)),
		wire(g[:len(g)-len(g)/8]),
		wire(corrupt(g, len(g)/2, 0x08)),
	}
}

// layerCorpus: serialized layered containers (tiled and untiled) for the
// layout/reader differential target, plus truncations and directory-byte
// damage straddling every layer-prologue validation fence.
func layerCorpus() [][]byte {
	var entries [][]byte
	fs := videoFrames(1)
	for _, tiles := range []int{0, 4} {
		opts := codec.OptionsFor(codec.IntraInterV1)
		opts.IntraAttr.Segments = 32
		opts.Inter.Segments = 48
		opts.Inter.Candidates = 8
		opts.Tiles = tiles
		opts.Layers = 3
		enc := codec.NewEncoder(dev(), opts)
		ef, _, err := enc.EncodeFrame(fs[0])
		if err != nil {
			log.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := ef.WriteTo(&buf); err != nil {
			log.Fatal(err)
		}
		entries = append(entries, buf.Bytes())
	}
	full := entries[len(entries)-1] // the tiled+layered container
	entries = append(entries,
		full[:len(full)/2],      // truncated mid-payload
		corrupt(full, 6, 0x04),  // flags byte: layered bit damage
		corrupt(full, 20, 0xFF), // tile-directory damage
		corrupt(full, 40, 0x01), // layer-prologue / record damage
		corrupt(full, len(full)-1, 0x80),
		[]byte("PCVF"), // magic alone
	)
	return entries
}

// attrCorpus: real intra attribute streams across parameter variants.
func attrCorpus() [][]byte {
	rng := rand.New(rand.NewSource(11))
	colors := make([]geom.Color, 400)
	r, g, b := 128.0, 100.0, 60.0
	for i := range colors {
		r += rng.Float64()*6 - 3
		g += rng.Float64()*6 - 3
		b += rng.Float64()*6 - 3
		colors[i] = geom.Color{R: uint8(r), G: uint8(g), B: uint8(b)}
	}
	var entries [][]byte
	for _, p := range []attr.Params{
		{Segments: 16, QStep: 1, Layers: 1},
		{Segments: 16, QStep: 4, Layers: 2},
		{Segments: 16, QStep: 4, Layers: 2, Entropy: true},
		{Segments: 16, QStep: 2, Layers: 2, YCoCg: true},
	} {
		data, err := attr.Encode(dev(), colors, p)
		if err != nil {
			log.Fatal(err)
		}
		entries = append(entries, data)
	}
	entries = append(entries, corrupt(entries[0], 1, 0x80), entries[2][:len(entries[2])/3])
	return entries
}

// entropyCorpus: compressed streams for the decompressor, raw inputs for
// the round-trip target.
func entropyCorpus() (decompress, roundTrip [][]byte) {
	rng := rand.New(rand.NewSource(12))
	noisy := make([]byte, 700)
	rng.Read(noisy)
	inputs := [][]byte{
		[]byte("the quick brown fox jumps over the lazy dog"),
		bytes.Repeat([]byte{0x42}, 900),
		noisy,
		{},
	}
	for _, in := range inputs {
		decompress = append(decompress, entropy.CompressBytes(in))
		roundTrip = append(roundTrip, in)
	}
	decompress = append(decompress, corrupt(decompress[0], 3, 0x55), decompress[1][:4])
	return decompress, roundTrip
}

// interframeCorpus: real P-frame streams against a synthetic reference.
func interframeCorpus() [][]byte {
	rng := rand.New(rand.NewSource(13))
	seen := map[morton.Code]bool{}
	keyed := make([]morton.Keyed, 0, 300)
	for len(keyed) < 300 {
		x, y, z := uint32(rng.Intn(512)), uint32(rng.Intn(512)), uint32(rng.Intn(512))
		c := morton.Encode(x, y, z)
		if seen[c] {
			continue
		}
		seen[c] = true
		keyed = append(keyed, morton.Keyed{Code: c, Voxel: geom.Voxel{
			X: x, Y: y, Z: z,
			C: geom.Color{R: uint8(x / 2), G: uint8(y / 2), B: uint8(z / 2)},
		}})
	}
	morton.Sort(keyed)
	iF := morton.Voxels(keyed)
	pF := make([]geom.Voxel, len(iF))
	copy(pF, iF)
	for i := range pF {
		pF[i].C = pF[i].C.Add(rng.Intn(9)-4, rng.Intn(9)-4, rng.Intn(9)-4)
	}
	var entries [][]byte
	for _, p := range []interframe.Params{
		{Segments: 20, Candidates: 10, Threshold: 50, QStep: 2},
		{Segments: 20, Candidates: 10, Threshold: -1, QStep: 2},
		{Segments: 40, Candidates: 4, Threshold: 1e9, QStep: 1},
	} {
		data, _, err := interframe.EncodeP(dev(), iF, pF, p)
		if err != nil {
			log.Fatal(err)
		}
		entries = append(entries, data)
	}
	entries = append(entries, corrupt(entries[0], 0, 0x01), entries[1][:2])
	// A bare header claiming 2^28 points in 2^28 blocks: the decoder must
	// refuse it before the counts size an allocation.
	var hostile []byte
	for _, v := range []uint64{1 << 28, 1 << 28, 1} {
		hostile = binary.AppendUvarint(hostile, v)
	}
	return append(entries, hostile)
}

// packetCorpus: framed data and control packets from the stream transport.
func packetCorpus() [][]byte {
	payload := bytes.Repeat([]byte{0xC3, 0x96}, 300)
	pkts := stream.PacketizeFrame(1, 4, codec.IFrame, 17, payload, 256)
	entries := [][]byte{
		pkts[0],
		pkts[len(pkts)-1],
		stream.PacketizeFrame(2, 5, codec.PFrame, 90, nil, 1400)[0], // empty frame
		stream.MarshalControl(stream.Control{Kind: stream.ControlNACK, StreamID: 1, Seqs: []uint32{3, 9, 1 << 20}}),
		stream.MarshalControl(stream.Control{Kind: stream.ControlRefresh, StreamID: 1, FrameIndex: 12}),
		stream.MarshalControl(stream.Control{Kind: stream.ControlFeedback, StreamID: 1, FrameIndex: 30,
			Feedback: stream.Feedback{Report: 2, HighestFrame: 30, Received: 480, Lost: 21,
				NACKs: 25, Decoded: 10, Concealed: 1, Skipped: 1}}),
		stream.MarshalPacket(stream.PacketHeader{Flags: stream.FlagLayered, StreamID: 3,
			FrameIndex: 6, FrameType: codec.PFrame, FragCount: 2, Seq: 44, Layer: 1}, payload[:80]),
		stream.MarshalPacket(stream.PacketHeader{Flags: stream.FlagTiled | stream.FlagLayered,
			StreamID: 3, FrameIndex: 6, FrameType: codec.IFrame, FragCount: 3, Frag: 1, Seq: 45,
			Tile: 2, Layer: 0}, payload[:80]),
		stream.MarshalControl(stream.Control{Kind: stream.ControlLayers, StreamID: 3, Layers: 2}),
	}
	entries = append(entries,
		corrupt(pkts[0], stream.PacketHeaderSize+1, 0x01), // payload bit → CRC fail
		corrupt(pkts[0], 0, 0xFF),                         // magic damage
		pkts[0][:stream.PacketHeaderSize-2],               // truncated header
	)
	return entries
}

// feedbackCorpus: receiver congestion-feedback payloads (the 32-byte
// ControlFeedback body) — healthy reports, boundary values, and damaged
// siblings on both sides of the size fence.
func feedbackCorpus() [][]byte {
	healthy := stream.AppendFeedback(nil, stream.Feedback{
		Report: 3, HighestFrame: 17, Received: 900, Lost: 45,
		NACKs: 51, Decoded: 14, Concealed: 2, Skipped: 1,
	})
	lossless := stream.AppendFeedback(nil, stream.Feedback{Report: 1, Received: 300, Decoded: 12})
	saturated := stream.AppendFeedback(nil, stream.Feedback{
		Report: 1 << 31, HighestFrame: ^uint32(0), Received: ^uint32(0), Lost: ^uint32(0),
		NACKs: ^uint32(0), Decoded: ^uint32(0), Concealed: ^uint32(0), Skipped: ^uint32(0),
	})
	return [][]byte{
		healthy,
		lossless,
		saturated,
		stream.AppendFeedback(nil, stream.Feedback{}), // all-zero report
		corrupt(healthy, 0, 0xFF),                     // report-number damage
		corrupt(healthy, 12, 0x80),                    // loss-count damage
		healthy[:stream.FeedbackSize/2],               // truncated
		append(append([]byte(nil), healthy...), 0),    // one byte long
	}
}

// parityCorpus: FEC parity payloads (the ParityGroup wire form) —
// healthy stride-1 and interleaved stride-2 groups, geometry boundary
// values, and damaged siblings on both sides of every validation fence.
func parityCorpus() [][]byte {
	rng := rand.New(rand.NewSource(14))
	body := make([]byte, 2+300)
	rng.Read(body)
	tail := make([]byte, 2+41) // ragged-tail group: short widest member
	rng.Read(tail)
	healthy := stream.AppendParity(nil, stream.ParityGroup{
		BaseSeq: 117, Count: 4, Stride: 1, FrameFirstSeq: 115, FragCount: 9, Body: body})
	interleaved := stream.AppendParity(nil, stream.ParityGroup{
		BaseSeq: 115, Count: 5, Stride: 2, FrameFirstSeq: 115, FragCount: 9, Body: body})
	entries := [][]byte{
		healthy,
		interleaved,
		stream.AppendParity(nil, stream.ParityGroup{ // singleton group
			BaseSeq: 40, Count: 1, Stride: 1, FrameFirstSeq: 40, FragCount: 1, Body: tail}),
		stream.AppendParity(nil, stream.ParityGroup{ // widest legal span
			BaseSeq: 1 << 30, Count: stream.MaxParityGroup, Stride: stream.MaxParityStride,
			FrameFirstSeq: 1 << 30, FragCount: 600, Body: tail}),
		stream.AppendParity(nil, stream.ParityGroup{ // seq-space wraparound
			BaseSeq: 2, Count: 3, Stride: 1, FrameFirstSeq: ^uint32(0) - 1, FragCount: 8, Body: tail}),
	}
	entries = append(entries,
		corrupt(healthy, 4, 0xFF),           // count beyond MaxParityGroup
		corrupt(healthy, 5, 0x0F),           // stride beyond MaxParityStride
		corrupt(healthy, 0, 0x80),           // base seq far outside the frame
		corrupt(healthy, 10, 0xFF),          // fragment-count damage
		healthy[:stream.ParityHeaderSize+1], // body too short
		healthy[:3],                         // truncated header
	)
	return entries
}

func main() {
	flag.Parse()
	decompress, roundTrip := entropyCorpus()
	for dir, entries := range map[string][][]byte{
		"internal/codec/testdata/fuzz/FuzzReadFrameFrom":       codecCorpus(),
		"internal/codec/testdata/fuzz/FuzzDecodeFrame":         frameCorpus(),
		"internal/codec/testdata/fuzz/FuzzParseLayerDirectory": layerCorpus(),
		"internal/attr/testdata/fuzz/FuzzDecode":               attrCorpus(),
		"internal/entropy/testdata/fuzz/FuzzDecompressBytes":   decompress,
		"internal/entropy/testdata/fuzz/FuzzRoundTrip":         roundTrip,
		"internal/entropy/testdata/fuzz/FuzzSliceDecoder":      decompress,
		"internal/interframe/testdata/fuzz/FuzzDecodeP":        interframeCorpus(),
		"pcc/stream/testdata/fuzz/FuzzParsePacket":             packetCorpus(),
		"pcc/stream/testdata/fuzz/FuzzParseFeedback":           feedbackCorpus(),
		"pcc/stream/testdata/fuzz/FuzzParseParity":             parityCorpus(),
	} {
		if err := writeCorpus(filepath.Join(*root, dir), entries); err != nil {
			log.Fatal(err)
		}
	}
}
