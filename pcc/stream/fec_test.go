package stream

// Forward-error-correction tests: parity group layout, XOR repair
// algebra, the parity wire format (including its fuzz target), and the
// end-to-end zero-RTT repair claims:
//
//   - a single loss per parity group decodes with zero NACK round trips
//     on the deterministic virtual-clock LossyPipe;
//   - parity survives drop/dup/reorder and Gilbert–Elliott burst faults
//     without ever corrupting a frame silently;
//   - with FEC disabled the packet stream is byte-identical to a sender
//     with no FEC at all;
//   - the relay tree fans parity out per viewer from each frame's cut of
//     the viewer's (view, MTU), the XOR bodies built once per cut;
//   - feedback windows net recovered packets out of the loss they report.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/linksim"
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

// TestFECRepairsSingleLossWithoutRetransmit is the zero-RTT acceptance
// regression: a deterministic one-in-23 scheduled drop never puts two
// losses in one parity group, so every loss repairs from parity alone —
// all frames decode and the receiver never sends a single NACK.
func TestFECRepairsSingleLossWithoutRetransmit(t *testing.T) {
	const total = 30
	frames := lossyFrames(t, total, 0.008)
	cfg := ServerConfig{Options: testOptions(codec.IntraInterV1), FEC: FECConfig{GroupLen: 4}}
	run := runLossy(t, frames, linksim.FaultProfile{DropEvery: 23}, cfg)

	decoded := checkOutcomes(t, run, total)
	fec := run.recovery.FEC
	t.Logf("decoded %d/%d; scheduled drops %d; parity sent=%d recv=%d repairs=%d wasted=%d; nacks=%d retx=%d",
		decoded, total, run.faults.ScheduledDrops, run.viewer.ParitySent,
		fec.ParityReceived, fec.ParityRepairs, fec.ParityWasted,
		run.recovery.NACKsSent, run.viewer.Retransmits)
	if run.faults.ScheduledDrops == 0 {
		t.Fatal("no scheduled drops: test is vacuous")
	}
	if decoded != total {
		t.Fatalf("decoded %d/%d: single-loss groups must fully repair", decoded, total)
	}
	if run.recovery.NACKsSent != 0 || run.viewer.Retransmits != 0 || run.recovery.RetransmitsReceived != 0 {
		t.Fatalf("retransmit traffic with repairable losses: nacks=%d retx=%d",
			run.recovery.NACKsSent, run.viewer.Retransmits)
	}
	if fec.ParityRepairs == 0 {
		t.Fatal("losses healed but no parity repairs counted")
	}
	// Every feedback-visible loss netted out: lifetime counters must agree
	// that whatever was counted lost was recovered.
	if run.recovery.PacketsLost != run.recovery.PacketsRecovered {
		t.Errorf("PacketsLost=%d PacketsRecovered=%d: zero-RTT repairs leaked into the loss signal",
			run.recovery.PacketsLost, run.recovery.PacketsRecovered)
	}
}

// TestFECReassemblyUnderFaults drives the repair path through the full
// fault gamut: independent loss with duplication and reordering, and two
// Gilbert–Elliott bursty-radio profiles. The no-silent-corruption
// contract must hold throughout and parity must buy real repairs.
func TestFECReassemblyUnderFaults(t *testing.T) {
	const total = 40
	frames := lossyFrames(t, total, 0.008)
	cases := []struct {
		name  string
		prof  linksim.FaultProfile
		floor float64
	}{
		{"iid loss dup reorder", linksim.FaultProfile{
			DropRate: 0.05, DupRate: 0.02, ReorderRate: 0.03, Seed: 11}, 0.97},
		{"gilbert-elliott mild", linksim.FaultProfile{
			GEBadLoss: 0.5, GEGoodToBad: 0.01, GEBadToGood: 0.4, Seed: 12}, 0.90},
		{"gilbert-elliott deep fades", linksim.FaultProfile{
			GEBadLoss: 0.8, GEGoodToBad: 0.015, GEBadToGood: 0.25, Seed: 13}, 0.80},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ServerConfig{Options: testOptions(codec.IntraInterV1), FEC: FECConfig{GroupLen: 4}}
			run := runLossy(t, frames, tc.prof, cfg)
			decoded := checkOutcomes(t, run, total)
			ratio := float64(decoded) / float64(total)
			fec := run.recovery.FEC
			t.Logf("decoded %d/%d (%.2f); faults %+v; repairs=%d wasted=%d nacks=%d",
				decoded, total, ratio, run.faults, fec.ParityRepairs, fec.ParityWasted,
				run.recovery.NACKsSent)
			if run.faults.Dropped+run.faults.GEDrops == 0 {
				t.Fatal("fault injector dropped nothing: test is vacuous")
			}
			if ratio < tc.floor {
				t.Errorf("decoded ratio %.3f below %.2f floor", ratio, tc.floor)
			}
			if fec.ParityRepairs == 0 {
				t.Error("no parity repairs under loss: FEC path never engaged")
			}
			if tc.prof.GEBadLoss > 0 && run.faults.GEBadSpells == 0 {
				t.Error("Gilbert–Elliott profile never entered a fade")
			}
		})
	}
}

// TestFECDeterministic: identical seeds with Gilbert–Elliott faults and
// FEC enabled must replay identical outcomes, fault stats, and FEC
// counters; a different seed must diverge.
func TestFECDeterministic(t *testing.T) {
	frames := lossyFrames(t, 15, 0.008)
	prof := linksim.FaultProfile{
		DropRate: 0.03, ReorderRate: 0.02, GEBadLoss: 0.6, GEGoodToBad: 0.02, Seed: 21}
	cfg := ServerConfig{Options: testOptions(codec.IntraInterV1), FEC: FECConfig{GroupLen: 4}}
	a := runLossy(t, frames, prof, cfg)
	b := runLossy(t, frames, prof, cfg)
	if a.recovery != b.recovery {
		t.Errorf("recovery counters diverged:\n a=%+v\n b=%+v", a.recovery, b.recovery)
	}
	if a.faults != b.faults {
		t.Errorf("fault stats diverged:\n a=%+v\n b=%+v", a.faults, b.faults)
	}
	prof.Seed = 22
	if c := runLossy(t, frames, prof, cfg); c.faults == a.faults {
		t.Error("different seeds produced identical fault sequences")
	}
}

// capturePackets streams frames to a one-viewer Server over a faultless
// link, returning every packet the viewer emitted.
func capturePackets(t *testing.T, frames int, fec FECConfig) (pkts [][]byte) {
	t.Helper()
	sv, _ := oneViewer(t, ServerConfig{Options: testOptions(codec.IntraInterV1), FEC: fec}, frames,
		func(_ context.Context, p []byte) error {
			pkts = append(pkts, append([]byte(nil), p...))
			return nil
		})
	for _, f := range lossyFrames(t, frames, 0.01) {
		if err := sv.Submit(context.Background(), f); err != nil {
			t.Fatal(err)
		}
	}
	if err := sv.Close(); err != nil {
		t.Fatal(err)
	}
	return pkts
}

// TestFECOffByteIdentical: the zero-value FECConfig without a controller
// emits no parity, and enabling static FEC only ever ADDS parity packets —
// the data packets, and with them the encoded frames they carry, are
// untouched.
func TestFECOffByteIdentical(t *testing.T) {
	off := capturePackets(t, 6, FECConfig{})
	on := capturePackets(t, 6, FECConfig{GroupLen: 4})

	for _, p := range off {
		pkt, err := ParsePacket(p)
		if err != nil {
			t.Fatal(err)
		}
		if pkt.Header.Flags&FlagParity != 0 {
			t.Fatal("zero-value FECConfig emitted parity without a controller")
		}
	}
	var data [][]byte
	parity := 0
	for _, p := range on {
		pkt, err := ParsePacket(p)
		if err != nil {
			t.Fatal(err)
		}
		if pkt.Header.Flags&FlagParity != 0 {
			parity++
			continue
		}
		data = append(data, p)
	}
	if parity == 0 {
		t.Fatal("static FEC emitted no parity packets")
	}
	if len(data) != len(off) {
		t.Fatalf("FEC-on data packet count %d, FEC-off %d", len(data), len(off))
	}
	for i := range data {
		if !bytes.Equal(data[i], off[i]) {
			t.Fatalf("data packet %d differs with FEC on (parity must be purely additive)", i)
		}
	}
}

// TestServerFECParityFanout: the relay tree emits per-viewer parity from
// each frame's cut of the viewer's (view, MTU), and every viewer gets the
// packets a from-scratch framing would give it. Rows: the server MTU, MTU
// 300, a culled camera and a one-layer subscription, two viewers each —
// which must receive the same stream but for the stream id — and
// maxCuts+1 viewers of distinct cameras at distinct MTUs, more (view, MTU)
// keys than a frame memoises. For every viewer: every frame decodes, every
// data packet equals MarshalPacket of its own header and payload (length
// and CRC recomputed), and every parity packet cancels against the
// viewer's own data packets; and once every viewer has sent every frame,
// every frame's cut memo is garbage — though the shard retransmit caches
// still hold the frames.
func TestServerFECParityFanout(t *testing.T) {
	frames := testFrames(t, 6)
	opts := layeredTestOptions(4)
	srv := NewServer(context.Background(), ServerConfig{
		Options: opts, ViewerQueue: 32, FEC: FECConfig{GroupLen: 4}})

	cam := awayCamera()
	type row struct {
		name  string
		cfg   ViewerConfig
		flags byte // the view's flags, on every data packet
	}
	var rows []row
	for _, r := range []row{
		{"server-mtu", ViewerConfig{}, 0},
		{"mtu-300", ViewerConfig{MTU: 300}, 0}, // cut at another MTU
		{"culled", ViewerConfig{Viewport: &cam}, FlagTiled},
		{"layers-1", ViewerConfig{Layers: 1}, FlagTiled | FlagLayered},
	} {
		rows = append(rows, r, r)
	}
	for i := 0; i <= maxCuts; i++ {
		c := awayCamera()
		c.Pos[0] += float64(i)
		rows = append(rows, row{fmt.Sprintf("overflow-%d", i), ViewerConfig{Viewport: &c, MTU: 400 + 8*i}, FlagTiled})
	}

	type capture struct {
		sink *viewerSink
		pkts [][]byte
		v    *Viewer
	}
	caps := make([]*capture, len(rows))
	gate := make(chan struct{}) // holds every viewer in its first send
	for i, r := range rows {
		c := &capture{sink: newViewerSink(opts)}
		caps[i] = c
		cfg := r.cfg
		cfg.PacketOut = func(ctx context.Context, p []byte) error {
			<-gate
			c.pkts = append(c.pkts, append([]byte(nil), p...))
			return c.sink.packetOut(ctx, p)
		}
		v, err := srv.Attach(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.v = v
	}
	for _, f := range frames {
		if err := srv.Submit(context.Background(), f); err != nil {
			t.Fatal(err)
		}
	}
	// Cuts live only while a frame has a send left. With every viewer held
	// sending the first frame, every later frame waits in every queue: watch
	// its memo, let the sends go, and once every viewer has sent every frame
	// no memo may stay reachable.
	queued := func(v *Viewer) int {
		v.mu.Lock()
		defer v.mu.Unlock()
		return len(v.queue)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		ready := true
		for _, c := range caps {
			ready = ready && queued(c.v) == len(frames)-1
		}
		if ready {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("frames never queued at every viewer behind the held send")
		}
	}
	var memo memoWatch
	v := caps[0].v // every viewer's queue holds the same frames and memos
	v.mu.Lock()
	for _, qf := range v.queue {
		memo.watch(qf.cuts)
	}
	v.mu.Unlock()
	close(gate)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		sent := 0
		for _, c := range caps {
			if c.v.Metrics().FramesSent == int64(len(frames)) {
				sent++
			}
		}
		if sent == len(caps) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d viewers sent every frame", sent, len(caps))
		}
	}
	memo.waitFreed(t)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	for i, c := range caps {
		name := rows[i].name
		outcomes := c.sink.finish(t, len(frames))
		for _, f := range outcomes {
			if f.Status != FrameDecoded {
				t.Errorf("%s frame %d: %v on a clean link", name, f.Index, f.Status)
			}
		}
		if got := c.v.Metrics().ParitySent; got == 0 {
			t.Errorf("%s reports zero parity sent", name)
		}
		// XOR-verify every parity packet against the viewer's own data
		// packets: folding each covered payload into the body must cancel
		// it to zero.
		data := make(map[uint32][]byte) // stream seq -> payload
		parity := 0
		for _, raw := range c.pkts {
			pkt, err := ParsePacket(raw)
			if err != nil {
				t.Fatal(err)
			}
			if pkt.Header.Flags&FlagParity == 0 {
				if got := pkt.Header.Flags; got != rows[i].flags {
					t.Fatalf("%s: data packet flags %02x, want %02x", name, got, rows[i].flags)
				}
				if !bytes.Equal(raw, MarshalPacket(pkt.Header, pkt.Payload)) {
					t.Fatalf("%s: data packet seq %d differs from its from-scratch framing", name, pkt.Header.Seq)
				}
				data[pkt.Header.Seq] = pkt.Payload
				continue
			}
			parity++
			pg, err := ParseParity(pkt.Payload)
			if err != nil {
				t.Fatal(err)
			}
			acc := append([]byte(nil), pg.Body...)
			for j := uint32(0); j < uint32(pg.Count); j++ {
				payload, ok := data[pg.BaseSeq+j*uint32(pg.Stride)]
				if !ok {
					t.Fatalf("%s: parity group %+v covers an unsent seq", name, pg)
				}
				xorRecord(acc, payload)
			}
			for _, b := range acc {
				if b != 0 {
					t.Fatalf("%s: parity body does not cancel against its data packets", name)
				}
			}
		}
		if parity == 0 {
			t.Errorf("%s emitted no parity packets", name)
		}
		// A row's second viewer gets the first one's packets under its own
		// stream id.
		if i > 0 && rows[i-1].name == name {
			prev := caps[i-1].pkts
			if len(prev) != len(c.pkts) {
				t.Fatalf("%s: the two viewers got %d and %d packets", name, len(prev), len(c.pkts))
			}
			for j := range prev {
				a, b := bytes.Clone(prev[j]), bytes.Clone(c.pkts[j])
				clear(a[4:8])
				clear(b[4:8])
				if !bytes.Equal(a, b) {
					t.Fatalf("%s: packet %d differs between the two viewers beyond the stream id", name, j)
				}
			}
		}
	}
}

// TestFeedbackNetsRecoveredLosses: a packet counted lost at its first
// NACK timeout but healed by the retransmit must be netted back out of
// the feedback window — the reports carry the round trip in NACKs, never
// a phantom loss.
func TestFeedbackNetsRecoveredLosses(t *testing.T) {
	const total = 12
	frames := lossyFrames(t, total, 0.01)
	fl := linksim.NewFaultyLink(linksim.WiFi, linksim.FaultProfile{})
	var outcomes []DecodedFrame
	pipe := NewLossyPipe(fl, ReceiverConfig{
		Options:       testOptions(codec.IntraInterV1),
		FeedbackEvery: 3,
		OnFrame:       func(f DecodedFrame) { outcomes = append(outcomes, f) },
	})
	var reports []Feedback
	recordFeedback(pipe, &reports)
	dropped := false
	sv, _ := oneViewer(t, ServerConfig{Options: testOptions(codec.IntraInterV1)}, total, func(ctx context.Context, pkt []byte) error {
		if !dropped {
			if p, err := ParsePacket(pkt); err == nil &&
				p.Header.Flags&(FlagControl|FlagParity) == 0 && p.Header.Seq == 5 {
				dropped = true
				return nil // one targeted loss; the retransmit goes through
			}
		}
		return pipe.PacketOut(ctx, pkt)
	})
	pipe.AttachServer(sv)
	for _, f := range frames {
		if err := sv.Submit(context.Background(), f); err != nil {
			t.Fatal(err)
		}
	}
	if err := sv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pipe.Finish(total); err != nil {
		t.Fatal(err)
	}

	rec := pipe.Receiver().Metrics()
	if !dropped {
		t.Fatal("targeted packet never sent: test is vacuous")
	}
	if rec.PacketsLost != 1 || rec.PacketsRecovered != 1 {
		t.Fatalf("PacketsLost=%d PacketsRecovered=%d, want 1 and 1", rec.PacketsLost, rec.PacketsRecovered)
	}
	if len(reports) == 0 {
		t.Fatal("no feedback reports captured")
	}
	var nacks uint32
	for i, fb := range reports {
		if fb.Lost != 0 {
			t.Errorf("report %d carries Lost=%d for a recovered packet", i, fb.Lost)
		}
		nacks += fb.NACKs
	}
	if nacks == 0 {
		t.Error("no report carried the NACK round trip")
	}
	for i, f := range outcomes {
		if f.Status != FrameDecoded {
			t.Errorf("frame %d: %v after a recovered single loss", i, f.Status)
		}
	}
}

// TestAdaptiveParityEngagesUnderLoss: with a zero FECConfig and the
// adaptive controller attached, parity is absent on a clean link and
// appears once reported loss raises the parity knob.
func TestAdaptiveParityEngagesUnderLoss(t *testing.T) {
	frames := lossyFrames(t, 24, 0.008)
	cfg := ServerConfig{Options: adaptOptions(codec.IntraInterV2)}
	clean := runLossy(t, frames, linksim.FaultProfile{}, cfg)
	if clean.viewer.ParitySent != 0 {
		t.Fatalf("clean link emitted %d parity packets at zero overhead setting", clean.viewer.ParitySent)
	}
	lossy := runLossy(t, frames, linksim.FaultProfile{DropRate: 0.12, Seed: 33}, cfg)
	if lossy.viewer.ParitySent == 0 {
		t.Fatal("sustained loss never raised the parity knob")
	}
	checkOutcomes(t, lossy, len(frames))
	t.Logf("clean parity=%d, lossy parity=%d repairs=%d", clean.viewer.ParitySent,
		lossy.viewer.ParitySent, lossy.recovery.FEC.ParityRepairs)
}
