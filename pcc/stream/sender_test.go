package stream

// Tests of the one send path, through a one-viewer Server wherever the
// behaviour is the sender core's, and of the Session's send-only
// PacketOut against it.

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/edgesim"
	"repro/internal/geom"
)

// wireTap is a PacketOut that keeps a copy of every packet it is handed:
// fresh data packets by sequence number, NACK answers in arrival order. An
// optional hook runs on every fresh data packet with the tap unlocked, so
// it may call back into the sender.
type wireTap struct {
	mu      sync.Mutex
	fresh   map[uint32][]byte
	frames  map[uint32][]uint32 // frame index → its data packets' seqs, in order
	retx    [][]byte
	parity  int
	onFresh func(PacketHeader)
	// scribble, when set, makes the tap use the ownership PacketOut hands
	// it: once copied, every packet is overwritten, appended to, and kept.
	// spare counts packets handed over with capacity beyond their length.
	scribble bool
	kept     [][]byte
	spare    int
}

func newWireTap() *wireTap {
	return &wireTap{fresh: map[uint32][]byte{}, frames: map[uint32][]uint32{}}
}

func (w *wireTap) packetOut(_ context.Context, pkt []byte) error {
	p, err := ParsePacket(pkt)
	if err != nil {
		return err
	}
	h := p.Header
	w.mu.Lock()
	switch {
	case h.Flags&FlagParity != 0:
		w.parity++
	case h.Flags&FlagRetransmit != 0:
		w.retx = append(w.retx, append([]byte(nil), pkt...))
	default:
		w.fresh[h.Seq] = append([]byte(nil), pkt...)
		w.frames[h.FrameIndex] = append(w.frames[h.FrameIndex], h.Seq)
	}
	if w.scribble {
		if cap(pkt) != len(pkt) {
			w.spare++
		}
		for i := range pkt {
			pkt[i] = 0xEE
		}
		w.kept = append(w.kept, append(pkt, 0xEE))
	}
	hook := w.onFresh
	w.mu.Unlock()
	if hook != nil && h.Flags&(FlagParity|FlagRetransmit) == 0 {
		hook(h)
	}
	return nil
}

// parityCount is the number of parity packets seen so far. A frame's last
// parity packet trails its last data packet, so it may still be arriving
// after complete reports the frame whole.
func (w *wireTap) parityCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.parity
}

// complete reports whether every fragment of frame idx has been seen.
func (w *wireTap) complete(idx uint32) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	seqs := w.frames[idx]
	if len(seqs) == 0 {
		return false
	}
	p, _ := ParsePacket(w.fresh[seqs[0]])
	return len(seqs) == int(p.Header.FragCount)
}

// oneViewer starts a Server with one viewer sending to out: the one sender
// a receiver can talk back to. The tests that use it run as a "Server"
// subtest, named for the sender's owner.
func oneViewer(t *testing.T, cfg ServerConfig, out PacketSendFunc) (*Server, *Viewer) {
	t.Helper()
	cfg.ViewerQueue = 64
	sv := NewServer(context.Background(), cfg)
	v, err := sv.Attach(ViewerConfig{PacketOut: out})
	if err != nil {
		t.Fatal(err)
	}
	return sv, v
}

// nack NACKs seqs on v's stream through the server, as v's receiver would.
func nack(sv *Server, v *Viewer, seqs ...uint32) error {
	return sv.HandleControl(Control{Kind: ControlNACK, StreamID: v.StreamID(), Seqs: seqs})
}

// streamAll submits every frame and waits until the tap has seen the last
// one whole — by which time the shared pipeline has recycled its pooled
// wire buffer under every earlier frame.
func streamAll(t *testing.T, sv *Server, tap *wireTap, frames []*geom.VoxelCloud) {
	t.Helper()
	for _, f := range frames {
		if err := sv.Submit(context.Background(), f); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for !tap.complete(uint32(len(frames) - 1)) {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the last frame's packets")
		}
		time.Sleep(time.Millisecond)
	}
}

// wantAnswer asserts that NACKing seq yields exactly one new packet,
// byte-identical to the original but for FlagRetransmit.
func wantAnswer(t *testing.T, sv *Server, v *Viewer, tap *wireTap, seq uint32) {
	t.Helper()
	tap.mu.Lock()
	before, orig := len(tap.retx), tap.fresh[seq]
	tap.mu.Unlock()
	if err := nack(sv, v, seq); err != nil {
		t.Fatal(err)
	}
	tap.mu.Lock()
	defer tap.mu.Unlock()
	if len(tap.retx) != before+1 {
		t.Fatalf("NACK %d: %d answers, want 1", seq, len(tap.retx)-before)
	}
	got := append([]byte(nil), tap.retx[before]...)
	if got[3] != orig[3]|FlagRetransmit {
		t.Fatalf("NACK %d: flags %02x, want %02x", seq, got[3], orig[3]|FlagRetransmit)
	}
	got[3] = orig[3]
	if !bytes.Equal(got, orig) {
		t.Fatalf("NACK %d: answer differs from the original packet beyond FlagRetransmit", seq)
	}
}

// TestNACKAnswerByteIdentical: with FEC on, a NACK is answered with the
// original packet plus FlagRetransmit — when it arrives re-entrantly from
// inside the PacketOut call delivering a later packet, and when it arrives
// long after the frame's wire buffer has gone back to the pool.
func TestNACKAnswerByteIdentical(t *testing.T) {
	t.Run("Server", func(t *testing.T) {
		frames := testFrames(t, 6)
		tap := newWireTap()
		var sv *Server
		var v *Viewer
		var once sync.Once
		var inline []byte // what the re-entrant NACK was answered with, before control returned
		tap.onFresh = func(h PacketHeader) {
			if h.FrameIndex != 1 || h.Frag != 1 {
				return
			}
			once.Do(func() {
				if err := nack(sv, v, h.Seq-1); err != nil {
					t.Error(err)
				}
				tap.mu.Lock()
				if len(tap.retx) == 1 {
					inline = tap.retx[0]
				}
				tap.mu.Unlock()
			})
		}
		sv, v = oneViewer(t, ServerConfig{Options: testOptions(codec.IntraInterV1), FEC: FECConfig{GroupLen: 4}}, tap.packetOut)
		streamAll(t, sv, tap, frames)

		if inline == nil {
			t.Fatal("re-entrant NACK was not answered inside the PacketOut call")
		}
		p, err := ParsePacket(inline)
		if err != nil {
			t.Fatal(err)
		}
		want := append([]byte(nil), tap.fresh[p.Header.Seq]...)
		want[3] |= FlagRetransmit
		if !bytes.Equal(inline, want) {
			t.Fatal("re-entrant NACK answer differs from the original packet beyond FlagRetransmit")
		}
		if tap.parityCount() == 0 {
			t.Fatal("no parity was sent: the FEC case is not exercised")
		}
		for idx := range frames {
			for _, seq := range tap.frames[uint32(idx)] {
				wantAnswer(t, sv, v, tap, seq)
			}
		}
		if err := sv.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPacketOutOwnsPacket: a PacketOut owns every packet it is handed. One
// that overwrites, appends to and keeps each packet corrupts nothing the
// sender sends later — every fresh packet still passes its CRC — and every
// NACK answer is still the original packet plus FlagRetransmit. Each
// packet comes capacity-capped, so an append cannot reach a neighbour in
// the send's slab.
func TestPacketOutOwnsPacket(t *testing.T) {
	t.Run("Server", func(t *testing.T) {
		frames := testFrames(t, 6)
		tap := newWireTap()
		tap.scribble = true
		sv, v := oneViewer(t, ServerConfig{Options: testOptions(codec.IntraInterV1), FEC: FECConfig{GroupLen: 4}}, tap.packetOut)
		streamAll(t, sv, tap, frames)
		if tap.parityCount() == 0 {
			t.Fatal("no parity was sent: the FEC case is not exercised")
		}
		for idx := range frames {
			for _, seq := range tap.frames[uint32(idx)] {
				wantAnswer(t, sv, v, tap, seq)
			}
		}
		if err := sv.Close(); err != nil {
			t.Fatal(err)
		}
		if tap.spare != 0 {
			t.Fatalf("%d of %d packets handed over with spare capacity", tap.spare, len(tap.kept))
		}
	})
}

// TestSessionPacketsMatchViewer: a send-only Session's PacketOut carries
// the very bytes a one-viewer Server's viewer sends for the same frames,
// stream id 1 on both — so a probe built on the Session's PacketOut sees
// the wire a viewer sends. The rows are the configurations without parity:
// the inter and intra designs, a 256-byte MTU, 8 tiles of 3 layers, and
// the adaptive controller.
func TestSessionPacketsMatchViewer(t *testing.T) {
	frames := testFrames(t, 9)
	for _, tc := range []struct {
		name string
		opts codec.Options
		mtu  int
	}{
		{"intra-inter-v1", testOptions(codec.IntraInterV1), 0},
		{"intra-only", testOptions(codec.IntraOnly), 0},
		{"mtu-256", testOptions(codec.IntraInterV1), 256},
		{"tiles-8-layers-3", layeredTestOptions(8), 0},
		{"adaptive-v2", adaptOptions(codec.IntraInterV2), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var sent, viewed [][]byte
			s := New(context.Background(), Config{Options: tc.opts, MTU: tc.mtu,
				PacketOut: func(_ context.Context, p []byte) error {
					sent = append(sent, p)
					return nil
				}})
			col := NewCollector(s)
			sv := NewServer(context.Background(), ServerConfig{Options: tc.opts, MTU: tc.mtu, Shards: 1, ViewerQueue: len(frames)})
			if _, err := sv.Attach(ViewerConfig{PacketOut: func(_ context.Context, p []byte) error {
				viewed = append(viewed, p)
				return nil
			}}); err != nil {
				t.Fatal(err)
			}
			for _, f := range frames {
				if err := s.Submit(context.Background(), f); err != nil {
					t.Fatal(err)
				}
				if err := sv.Submit(context.Background(), f); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			col.Wait()
			if err := sv.Close(); err != nil {
				t.Fatal(err)
			}
			if len(sent) != len(viewed) {
				t.Fatalf("the Session sent %d packets, the viewer %d", len(sent), len(viewed))
			}
			for i := range sent {
				if !bytes.Equal(sent[i], viewed[i]) {
					t.Fatalf("packet %d of %d differs between the Session and the viewer", i, len(sent))
				}
			}
		})
	}
}

// publishedTestFrame publishes one ~50 KB tiled, layered I-frame as a
// Server would, with parity group size 4 and its identity cut at mtu.
func publishedTestFrame(t *testing.T, mtu int) liveFrame {
	t.Helper()
	enc := codec.NewEncoder(edgesim.NewXavier(edgesim.Mode15W), layeredTestOptions(4))
	ef, _, err := enc.EncodeFrame(videoFrames(t, "loot", 1, 0.0075)[0])
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ef.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	lf := newLiveFrame(0, codec.IFrame, buf.Bytes(), mtu, 4)
	lf.f.layout = codec.ParseFrameLayout(lf.f.p.wire)
	return lf
}

// memoWatch counts the cut memos it watches that the garbage collector has
// found unreachable.
type memoWatch struct {
	watched int
	freed   atomic.Int64
}

func (w *memoWatch) watch(m *cutMemo) {
	w.watched++
	runtime.SetFinalizer(m, func(*cutMemo) { w.freed.Add(1) })
}

// waitFreed runs the collector until every watched memo's finalizer has
// run, and fails after 10 s.
func (w *memoWatch) waitFreed(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); w.freed.Load() < int64(w.watched); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d cut memos still reachable", w.watched-int(w.freed.Load()), w.watched)
		}
		runtime.GC()
	}
}

// TestFrameCutMemo: senders of one (view, MTU) that ask for a frame's cut
// at once all get the same *frameCut, built by whichever asked first and
// equal to a fresh build; past maxCuts distinct keys, or without a memo (a
// late joiner's replay copy), each send builds its own, equal one. The
// retransmit cache never reaches the memo: once the frame's last liveFrame
// is dropped the memo is garbage, while the cached frame still answers a
// NACK with the original packet.
func TestFrameCutMemo(t *testing.T) {
	const mtu = 1400
	lf := publishedTestFrame(t, mtu)
	f := lf.f
	type key struct {
		vw  view
		mtu int
	}
	keys := []key{
		{view{}, mtu},
		{view{}, 300},
		{view{omit: 1 << 0, coarse: 1 << 2}, mtu},
		{view{layers: 1}, mtu},
	}
	for i := len(keys); i < maxCuts; i++ {
		keys = append(keys, key{view{layers: 2}, 400 + 8*i})
	}
	for _, k := range keys {
		const senders = 4
		got := make([]*frameCut, senders)
		var start, done sync.WaitGroup
		start.Add(1)
		for i := range got {
			done.Add(1)
			go func() {
				defer done.Done()
				start.Wait()
				got[i] = lf.cut(k.vw, k.mtu)
			}()
		}
		start.Done()
		done.Wait()
		for _, c := range got[1:] {
			if c != got[0] {
				t.Fatalf("view %+v at MTU %d: concurrent senders got different cuts", k.vw, k.mtu)
			}
		}
		if c := lf.cut(k.vw, k.mtu); c != got[0] || !reflect.DeepEqual(c, f.buildCut(k.vw, k.mtu)) {
			t.Fatalf("view %+v at MTU %d: memoised cut is not the fresh build", k.vw, k.mtu)
		}
	}
	for i := range lf.cuts {
		if lf.cuts[i].Load() == nil {
			t.Fatalf("memo slot %d empty after %d distinct keys", i, len(keys))
		}
	}
	over, again := lf.cut(view{}, 1000), lf.cut(view{}, 1000)
	if over == again || !reflect.DeepEqual(over, again) {
		t.Fatal("a key past maxCuts was memoised, or its cuts differ")
	}
	// Without a memo, cuts are built per call.
	bare := liveFrame{f: f}
	if c := bare.cut(keys[0].vw, keys[0].mtu); c == bare.cut(keys[0].vw, keys[0].mtu) || !reflect.DeepEqual(c, lf.cuts[0].Load()) {
		t.Fatal("a cut without a memo was memoised, or differs")
	}
	// A send past maxCuts is NACK-answerable like any other: the rebuilt
	// packet is the original plus FlagRetransmit, from the cached frame
	// alone once the memo is garbage.
	var sent [][]byte
	s := &sender{ctx: context.Background(), mtu: 1000, budget: retxBudget,
		cache: newRetxCache(retxBudget, 1000, func(int64, int64) {}),
		out: func(_ context.Context, pkt []byte) error {
			if pkt[3]&FlagParity == 0 {
				sent = append(sent, pkt)
			}
			return nil
		}}
	s.cache.add(f)
	if _, _, err := s.send(lf, 0, view{layers: 1}); err != nil {
		t.Fatal(err)
	}
	var memo memoWatch
	memo.watch(lf.cuts)
	lf = liveFrame{}
	memo.waitFreed(t)
	for seq, orig := range sent {
		want := bytes.Clone(orig)
		want[3] |= FlagRetransmit
		if got := s.rebuild(uint32(seq)); !bytes.Equal(got, want) {
			t.Fatalf("NACK %d past maxCuts: answer differs from the original packet beyond FlagRetransmit", seq)
		}
	}
}

// TestSendAllocsPerFrame is the send path's allocation gate. With the
// frame's cut warm, a send frames every data and parity packet into its
// slab: at most ⌈packet bytes / 64 KiB⌉ allocations, whatever the view or
// the MTU. On this ~50 KB frame that is one per send, where an allocation
// per packet (and per parity body off the identity cut) made 46, 68, 43
// and 41. Nothing on the path is pooled, so a -race build reads the same.
func TestSendAllocsPerFrame(t *testing.T) {
	const mtu = 1400
	lf := publishedTestFrame(t, mtu)
	out := func(context.Context, []byte) error { return nil }
	for _, tc := range []struct {
		name string
		mtu  int
		vw   view
	}{
		{"identity", mtu, view{}},
		{"mtu-1200", 1200, view{}},
		{"culled", mtu, view{omit: 1 << 0, coarse: 1 << 2}},
		{"layers-1", mtu, view{layers: 1}},
	} {
		s := &sender{ctx: context.Background(), mtu: tc.mtu, budget: retxBudget, out: out}
		var wire int64
		var err error
		allocs := testing.AllocsPerRun(50, func() {
			if wire, _, err = s.send(lf, 0, tc.vw); err != nil {
				panic(err)
			}
		})
		c := lf.cut(tc.vw, tc.mtu)
		limit := float64((wire + slabChunk - 1) / slabChunk)
		t.Logf("%-8s %6d bytes in %2d packets: %.0f allocs per send (cap %.0f)",
			tc.name, wire, c.n+len(c.groups), allocs, limit)
		if allocs > limit {
			t.Errorf("%s: %.0f allocs per send, want <= %.0f", tc.name, allocs, limit)
		}
	}
}

// TestRetransmitEvictionIsFrameGranular: the retransmit budget evicts whole
// frames, oldest first — every fragment of the oldest frame still inside
// the budget is answerable, every fragment of the frame before it is a
// counted miss. A 256-byte MTU cuts each frame into about 290 packets, so
// the budget keeps a few of the eight.
func TestRetransmitEvictionIsFrameGranular(t *testing.T) {
	t.Run("Server", func(t *testing.T) {
		frames := testFrames(t, 8)
		const budget = retxBudget
		tap := newWireTap()
		sv, v := oneViewer(t, ServerConfig{Options: testOptions(codec.IntraOnly), MTU: 256}, tap.packetOut)
		streamAll(t, sv, tap, frames)

		// The frames kept are the longest suffix that fits the budget.
		oldest, held := len(frames), 0
		for oldest > 0 && held+len(tap.frames[uint32(oldest-1)]) <= budget {
			oldest--
			held += len(tap.frames[uint32(oldest)])
		}
		if oldest < 1 || oldest >= len(frames) {
			t.Fatalf("budget %d keeps frames [%d,%d): nothing to compare", budget, oldest, len(frames))
		}
		for _, seq := range tap.frames[uint32(oldest)] {
			wantAnswer(t, sv, v, tap, seq)
		}
		evicted := tap.frames[uint32(oldest-1)]
		hits := v.Metrics().Retransmits
		for _, seq := range evicted {
			if err := nack(sv, v, seq); err != nil {
				t.Fatal(err)
			}
		}
		if m := v.Metrics(); m.Retransmits != hits || m.RetxMisses != int64(len(evicted)) {
			t.Fatalf("evicted frame: %d new retransmits and %d misses, want 0 and %d", m.Retransmits-hits, m.RetxMisses, len(evicted))
		}
		if err := sv.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFragmentCountLimit: a frame is sent only while its fragments fit the
// header's 16-bit count — 65 535 at the smallest accepted MTU goes out
// numbered correctly, one more is refused whole instead of wrapping.
func TestFragmentCountLimit(t *testing.T) {
	const mtu = 64
	wire := make([]byte, 65536*mtu)
	for _, tc := range []struct {
		n  int
		ok bool
	}{{65535, true}, {65536, false}} {
		w := wire[:tc.n*mtu]
		pkts := PacketizeFrame(1, 0, codec.IFrame, 7, w, mtu)
		s := &sender{mtu: mtu, budget: 1 << 20}
		_, _, err := s.send(newLiveFrame(0, codec.IFrame, w, mtu, 0), 0, view{})
		if !tc.ok {
			if pkts != nil || !errors.Is(err, ErrFrameTooLarge) {
				t.Fatalf("n=%d: PacketizeFrame gave %d packets, send gave %v; want nil and ErrFrameTooLarge", tc.n, len(pkts), err)
			}
			continue
		}
		if err != nil || len(pkts) != tc.n || s.snapshot().packets != int64(tc.n) {
			t.Fatalf("n=%d: %d packets, send sent %d, err %v", tc.n, len(pkts), s.snapshot().packets, err)
		}
		last, err := ParsePacket(pkts[tc.n-1])
		if err != nil {
			t.Fatal(err)
		}
		if h := last.Header; int(h.Frag) != tc.n-1 || int(h.FragCount) != tc.n || h.Seq != 7+uint32(tc.n-1) {
			t.Fatalf("n=%d: last packet numbered %+v", tc.n, h)
		}
	}
}

// TestMTUClampedOnce: an MTU above MaxPayload is capped where the
// configuration is normalized, so the packet count a Result reports is the
// count PacketOut saw — not the count at the raw value.
func TestMTUClampedOnce(t *testing.T) {
	frames := videoFrames(t, "loot", 2, 0.05)
	var mu sync.Mutex
	seen := map[uint32]int{}
	s := New(context.Background(), Config{
		Options: testOptions(codec.IntraOnly),
		MTU:     100000,
		PacketOut: func(_ context.Context, pkt []byte) error {
			p, err := ParsePacket(pkt)
			if err != nil {
				return err
			}
			mu.Lock()
			seen[p.Header.FrameIndex]++
			mu.Unlock()
			return nil
		},
	})
	col := NewCollector(s)
	for _, f := range frames {
		if err := s.Submit(context.Background(), f); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, r := range col.Wait() {
		if r.WireBytes <= MaxPayload {
			t.Fatalf("frame %d is %d bytes: too small to tell a clamped MTU from a raw one", r.Seq, r.WireBytes)
		}
		if r.Packets != seen[uint32(r.Seq)] {
			t.Fatalf("frame %d: Result.Packets %d, PacketOut saw %d", r.Seq, r.Packets, seen[uint32(r.Seq)])
		}
		total += int64(r.Packets)
	}
	if m := s.Metrics(); m.Packets != total {
		t.Fatalf("Metrics.Packets %d, want %d", m.Packets, total)
	}
}
