package stream

// Forward-error-correction tests: parity group layout, XOR repair
// algebra and the parity wire format (with its fuzz target). Zero-RTT
// repair, repair under faults, parity fan-out and adaptive parity are rows
// of the scenario table.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/codec"
)

func TestParityGroupsLayout(t *testing.T) {
	cases := []struct {
		name  string
		n, k  int
		ftype codec.FrameType
		want  []groupSpec
	}{
		{"no parity", 10, 0, codec.PFrame, nil},
		{"no fragments", 0, 4, codec.PFrame, nil},
		{"p-frame exact runs", 6, 3, codec.PFrame, []groupSpec{
			{base: 0, count: 3, stride: 1}, {base: 3, count: 3, stride: 1}}},
		{"p-frame ragged tail", 7, 3, codec.PFrame, []groupSpec{
			{base: 0, count: 3, stride: 1}, {base: 3, count: 3, stride: 1},
			{base: 6, count: 1, stride: 1}}},
		{"p-frame single", 1, 4, codec.PFrame, []groupSpec{
			{base: 0, count: 1, stride: 1}}},
		{"i-frame interleaved even span", 8, 4, codec.IFrame, []groupSpec{
			{base: 0, count: 4, stride: 2}, {base: 1, count: 4, stride: 2}}},
		{"i-frame interleaved odd span", 7, 4, codec.IFrame, []groupSpec{
			{base: 0, count: 4, stride: 2}, {base: 1, count: 3, stride: 2}}},
		{"i-frame short second span falls back", 10, 4, codec.IFrame, []groupSpec{
			{base: 0, count: 4, stride: 2}, {base: 1, count: 4, stride: 2},
			{base: 8, count: 2, stride: 1}}},
		{"i-frame tiny span falls back", 9, 4, codec.IFrame, []groupSpec{
			{base: 0, count: 4, stride: 2}, {base: 1, count: 4, stride: 2},
			{base: 8, count: 1, stride: 1}}},
		{"i-frame k=1 stays stride-1", 4, 1, codec.IFrame, []groupSpec{
			{base: 0, count: 1, stride: 1}, {base: 1, count: 1, stride: 1},
			{base: 2, count: 1, stride: 1}, {base: 3, count: 1, stride: 1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := parityGroups(tc.n, tc.k, tc.ftype)
			if len(got) != len(tc.want) {
				t.Fatalf("got %d groups %+v, want %+v", len(got), got, tc.want)
			}
			covered := make(map[int]int)
			for i, g := range got {
				if g != tc.want[i] {
					t.Errorf("group %d = %+v, want %+v", i, g, tc.want[i])
				}
				if g.end() >= tc.n {
					t.Errorf("group %d end %d beyond fragment count %d", i, g.end(), tc.n)
				}
				for j := 0; j < g.count; j++ {
					covered[g.base+j*g.stride]++
				}
			}
			// Every fragment is covered by exactly one group: one parity
			// packet repairs one loss, and no loss is uncovered.
			for f := 0; f < tc.n; f++ {
				if tc.k > 0 && covered[f] != 1 {
					t.Errorf("fragment %d covered %d times", f, covered[f])
				}
			}
		})
	}
	// Adjacent-loss property: with interleaved I-frame parity, any two
	// consecutive fragments inside a span land in different groups.
	for _, g := range [][]groupSpec{parityGroups(8, 4, codec.IFrame)} {
		owner := make(map[int]int)
		for gi, gr := range g {
			for j := 0; j < gr.count; j++ {
				owner[gr.base+j*gr.stride] = gi
			}
		}
		for f := 0; f+1 < 8; f++ {
			if owner[f] == owner[f+1] {
				t.Errorf("fragments %d and %d share group %d: burst pair unrepairable", f, f+1, owner[f])
			}
		}
	}
}

// TestParityBodyRecoversAnyMember is the parity builder's defining
// property, checked against the packets the same plan actually ships: for
// every group, XORing the body with the records of all members but one
// yields exactly the missing member's length and payload — the receiver's
// reconstruction step — whether the plan is one contiguous span or a
// culled frame's scattered ones.
func TestParityBodyRecoversAnyMember(t *testing.T) {
	wire := make([]byte, 1000)
	for i := range wire {
		wire[i] = byte(i*7 + 3)
	}
	plans := []struct {
		name string
		plan *viewPlan
		mtu  int
	}{
		{"identity", identityPlan(wire), 96}, // 11 fragments, ragged 40-byte tail
		{"culled", culledTestPlan(t), 7},     // fragments straddle span boundaries
		{"culled", culledTestPlan(t), 256},
	}
	for _, tc := range plans {
		for _, ftype := range []codec.FrameType{codec.PFrame, codec.IFrame} {
			pkts, err := tc.plan.packets(PacketHeader{FrameType: ftype}, tc.mtu)
			if err != nil {
				t.Fatal(err)
			}
			payloads := make([][]byte, len(pkts))
			for i, raw := range pkts {
				p, err := ParsePacket(raw)
				if err != nil {
					t.Fatal(err)
				}
				payloads[i] = p.Payload
			}
			for _, g := range parityGroups(len(pkts), 4, ftype) {
				body := tc.plan.parityBody(g, tc.mtu)
				// miss == g.count folds every member back in: the body must
				// cancel to zero (the "nothing to repair" detector).
				for miss := 0; miss <= g.count; miss++ {
					acc := append([]byte(nil), body...)
					for i := 0; i < g.count; i++ {
						if i != miss {
							xorRecord(acc, payloads[g.base+i*g.stride])
						}
					}
					want := []byte(nil)
					if miss < g.count {
						want = payloads[g.base+miss*g.stride]
					}
					plen := int(binary.LittleEndian.Uint16(acc[:2]))
					if plen != len(want) || !bytes.Equal(acc[2:2+plen], want) {
						t.Fatalf("%s mtu %d %v group %+v miss %d: recovered %d bytes, want the %d-byte member",
							tc.name, tc.mtu, ftype, g, miss, plen, len(want))
					}
					for _, b := range acc[2+plen:] {
						if b != 0 {
							t.Fatalf("%s mtu %d %v group %+v miss %d: padding not zero", tc.name, tc.mtu, ftype, g, miss)
						}
					}
				}
			}
		}
	}
}

func TestParityPacketRoundTrip(t *testing.T) {
	wire := bytes.Repeat([]byte{0xA5, 0x5A, 7}, 200)
	const mtu, firstSeq = 128, 1000
	g := parityGroups(fragsAtMTU(len(wire), mtu), 3, codec.PFrame)[1]
	body := identityPlan(wire).parityBody(g, mtu)
	raw := appendParityPacket(nil, 9, 4, codec.PFrame, firstSeq, 5, g, body)

	pkt, err := ParsePacket(raw)
	if err != nil {
		t.Fatal(err)
	}
	h := pkt.Header
	if h.Flags&FlagParity == 0 || h.StreamID != 9 || h.FrameIndex != 4 ||
		h.FrameType != codec.PFrame || h.Seq != firstSeq+uint32(g.base) {
		t.Fatalf("parity header %+v", h)
	}
	pg, err := ParseParity(pkt.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if pg.BaseSeq != firstSeq+uint32(g.base) || int(pg.Count) != g.count ||
		int(pg.Stride) != g.stride || pg.FrameFirstSeq != firstSeq ||
		pg.FragCount != 5 || !bytes.Equal(pg.Body, body) {
		t.Fatalf("parity payload %+v", pg)
	}
}

func TestParseParityRejects(t *testing.T) {
	valid := func() ParityGroup {
		return ParityGroup{BaseSeq: 100, Count: 4, Stride: 1,
			FrameFirstSeq: 100, FragCount: 8, Body: make([]byte, 10)}
	}
	cases := []struct {
		name string
		mut  func(*ParityGroup)
	}{
		{"count zero", func(p *ParityGroup) { p.Count = 0 }},
		{"count over max", func(p *ParityGroup) { p.Count = MaxParityGroup + 1 }},
		{"stride zero", func(p *ParityGroup) { p.Stride = 0 }},
		{"stride over max", func(p *ParityGroup) { p.Stride = MaxParityStride + 1 }},
		{"fragcount zero", func(p *ParityGroup) { p.FragCount = 0 }},
		{"base before frame", func(p *ParityGroup) { p.BaseSeq = 99 }},
		{"base beyond frame", func(p *ParityGroup) { p.BaseSeq = 108 }},
		{"last beyond frame", func(p *ParityGroup) { p.Stride = 3 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pg := valid()
			tc.mut(&pg)
			if _, err := ParseParity(AppendParity(nil, pg)); !errors.Is(err, ErrBadPacket) {
				t.Errorf("err = %v, want ErrBadPacket", err)
			}
		})
	}
	for _, n := range []int{0, 1, ParityHeaderSize, ParityHeaderSize + 1} {
		if _, err := ParseParity(make([]byte, n)); !errors.Is(err, ErrBadPacket) {
			t.Errorf("%d zero bytes: err = %v, want ErrBadPacket", n, err)
		}
	}
	if _, err := ParseParity(AppendParity(nil, valid())); err != nil {
		t.Fatalf("valid parity rejected: %v", err)
	}
}

// FuzzParseParity: ParseParity must never panic, and every accepted
// payload must re-encode byte-identical through AppendParity.
func FuzzParseParity(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, ParityHeaderSize+2))
	f.Add(AppendParity(nil, ParityGroup{BaseSeq: 40, Count: 3, Stride: 2,
		FrameFirstSeq: 38, FragCount: 9, Body: []byte{4, 0, 1, 2, 3, 4}}))
	// A group ending one past its frame: a receiver must not open gaps to it.
	f.Add(AppendParity(nil, ParityGroup{BaseSeq: 40, Count: 3, Stride: 2,
		FrameFirstSeq: 38, FragCount: 6, Body: []byte{4, 0, 1, 2, 3, 4}}))
	wire := bytes.Repeat([]byte{1, 2, 3}, 500)
	for _, g := range parityGroups(fragsAtMTU(len(wire), 256), 4, codec.IFrame) {
		pkt, err := ParsePacket(appendParityPacket(nil, 1, 0, codec.IFrame, 10, 6, g, identityPlan(wire).parityBody(g, 256)))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(pkt.Payload)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pg, err := ParseParity(data)
		if err != nil {
			if !errors.Is(err, ErrBadPacket) {
				t.Fatalf("non-ErrBadPacket failure: %v", err)
			}
			return
		}
		if out := AppendParity(nil, pg); !bytes.Equal(out, data) {
			t.Fatalf("re-encode mismatch:\n in  %x\n out %x", data, out)
		}
		base := pg.BaseSeq - pg.FrameFirstSeq
		if last := base + uint32(pg.Count-1)*uint32(pg.Stride); last >= uint32(pg.FragCount) {
			t.Fatalf("accepted group overruns its frame: %+v", pg)
		}
	})
}
