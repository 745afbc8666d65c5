package stream

// Tests of the one send path, run against both of its owners — a Session
// and a one-viewer Server — wherever the behaviour is the sender core's.

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
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
	hook := w.onFresh
	w.mu.Unlock()
	if hook != nil && h.Flags&(FlagParity|FlagRetransmit) == 0 {
		hook(h)
	}
	return nil
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

// sendOwner is what the table-driven tests need of a Session or a Server
// with one viewer attached.
type sendOwner struct {
	submit  func(*geom.VoxelCloud) error
	control func(Control) error
	// retx reports the sender's retransmit and retransmit-miss counters.
	retx  func() (hits, misses int64)
	close func() error
}

type ownerConfig struct {
	opts   codec.Options
	fec    FECConfig
	buffer int // RetransmitBuffer
}

var sendOwners = []struct {
	name string
	make func(*testing.T, ownerConfig, PacketSendFunc) sendOwner
}{
	{"Session", func(t *testing.T, c ownerConfig, out PacketSendFunc) sendOwner {
		s := New(context.Background(), Config{Options: c.opts, FEC: c.fec, RetransmitBuffer: c.buffer, PacketOut: out})
		col := NewCollector(s)
		return sendOwner{
			submit:  func(vc *geom.VoxelCloud) error { return s.Submit(context.Background(), vc) },
			control: s.HandleControl,
			retx: func() (int64, int64) {
				m := s.Metrics()
				return m.Retransmits, m.RetxMisses
			},
			close: func() error {
				err := s.Close()
				col.Wait()
				return err
			},
		}
	}},
	{"Server", func(t *testing.T, c ownerConfig, out PacketSendFunc) sendOwner {
		sv := NewServer(context.Background(), ServerConfig{Options: c.opts, FEC: c.fec, RetransmitBuffer: c.buffer, ViewerQueue: 64})
		v, err := sv.Attach(ViewerConfig{PacketOut: out})
		if err != nil {
			t.Fatal(err)
		}
		return sendOwner{
			submit: func(vc *geom.VoxelCloud) error { return sv.Submit(context.Background(), vc) },
			control: func(c Control) error {
				c.StreamID = v.StreamID()
				return sv.HandleControl(c)
			},
			retx: func() (int64, int64) {
				m := v.Metrics()
				return m.Retransmits, m.RetxMisses
			},
			close: sv.Close,
		}
	}},
}

// streamAll submits every frame and waits until the tap has seen the last
// one whole — by which time a Session has recycled its pooled wire buffer
// under every earlier frame.
func streamAll(t *testing.T, o sendOwner, tap *wireTap, frames []*geom.VoxelCloud) {
	t.Helper()
	for _, f := range frames {
		if err := o.submit(f); err != nil {
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
func wantAnswer(t *testing.T, o sendOwner, tap *wireTap, seq uint32) {
	t.Helper()
	tap.mu.Lock()
	before, orig := len(tap.retx), tap.fresh[seq]
	tap.mu.Unlock()
	if err := o.control(Control{Kind: ControlNACK, Seqs: []uint32{seq}}); err != nil {
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
	frames := testFrames(t, 6)
	for _, owner := range sendOwners {
		t.Run(owner.name, func(t *testing.T) {
			tap := newWireTap()
			var o sendOwner
			var once sync.Once
			var inline []byte // what the re-entrant NACK was answered with, before control returned
			tap.onFresh = func(h PacketHeader) {
				if h.FrameIndex != 1 || h.Frag != 1 {
					return
				}
				once.Do(func() {
					if err := o.control(Control{Kind: ControlNACK, Seqs: []uint32{h.Seq - 1}}); err != nil {
						t.Error(err)
					}
					tap.mu.Lock()
					if len(tap.retx) == 1 {
						inline = tap.retx[0]
					}
					tap.mu.Unlock()
				})
			}
			o = owner.make(t, ownerConfig{opts: testOptions(codec.IntraInterV1), fec: FECConfig{GroupLen: 4}}, tap.packetOut)
			streamAll(t, o, tap, frames)

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
			if tap.parity == 0 {
				t.Fatal("no parity was sent: the FEC case is not exercised")
			}
			for idx := range frames {
				for _, seq := range tap.frames[uint32(idx)] {
					wantAnswer(t, o, tap, seq)
				}
			}
			if err := o.close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRetransmitEvictionIsFrameGranular: the retransmit budget evicts whole
// frames, oldest first — every fragment of the oldest frame still inside
// the budget is answerable, every fragment of the frame before it is a
// counted miss.
func TestRetransmitEvictionIsFrameGranular(t *testing.T) {
	frames := testFrames(t, 8)
	const budget = 100
	for _, owner := range sendOwners {
		t.Run(owner.name, func(t *testing.T) {
			tap := newWireTap()
			o := owner.make(t, ownerConfig{opts: testOptions(codec.IntraOnly), buffer: budget}, tap.packetOut)
			streamAll(t, o, tap, frames)

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
				wantAnswer(t, o, tap, seq)
			}
			evicted := tap.frames[uint32(oldest-1)]
			hits, _ := o.retx()
			for _, seq := range evicted {
				if err := o.control(Control{Kind: ControlNACK, Seqs: []uint32{seq}}); err != nil {
					t.Fatal(err)
				}
			}
			if h, m := o.retx(); h != hits || m != int64(len(evicted)) {
				t.Fatalf("evicted frame: %d new retransmits and %d misses, want 0 and %d", h-hits, m, len(evicted))
			}
			if err := o.close(); err != nil {
				t.Fatal(err)
			}
		})
	}
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
		f := newSharedFrame(0, codec.IFrame, w, mtu, 0)
		_, _, err := s.send(f, 0, view{})
		f.p.release()
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
	frames := lossyFrames(t, 2, 0.05)
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
