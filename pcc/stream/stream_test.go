package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/edgesim"
	"repro/internal/geom"
	"repro/internal/linksim"
)

// congested is a link narrow enough that realistic frames take hundreds of
// simulated milliseconds each — the regime where the backpressure policy
// matters.
var congested = linksim.Link{Name: "congested", BandwidthMbps: 1, RTTMs: 40,
	TxNanojoulePerByte: 1000, RxNanojoulePerByte: 500}

// testFrames generates n small frames of one Table I video.
func testFrames(t testing.TB, n int) []*geom.VoxelCloud {
	t.Helper()
	spec, err := dataset.SpecByName("loot")
	if err != nil {
		t.Fatal(err)
	}
	g := dataset.NewGenerator(spec, 0.02)
	out := make([]*geom.VoxelCloud, n)
	for i := range out {
		if out[i], err = g.Frame(i); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// testOptions shrinks the paper's segment counts to the test scale.
func testOptions(d codec.Design) codec.Options {
	o := codec.OptionsFor(d)
	o.IntraAttr.Segments = 64
	o.Inter.Segments = 96
	o.Inter.Candidates = 16
	return o
}

// checkOrdered asserts results cover seqs 0..n-1 in strictly increasing
// order, that dropped frames are all P, and that every I-frame survived.
func checkOrdered(t *testing.T, results []Result, n int) (drops int) {
	t.Helper()
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	for i, r := range results {
		if r.Seq != i {
			t.Fatalf("result %d has seq %d: delivery out of order", i, r.Seq)
		}
		if r.Dropped {
			drops++
			if r.Stats.Type != codec.PFrame {
				t.Fatalf("frame %d dropped but is %v: only P-frames may drop", r.Seq, r.Stats.Type)
			}
		}
	}
	return drops
}

// The pipelined encoder must produce the exact byte stream of the
// sequential core.VideoWriter: same frames, same order, same bits — the
// strongest in-order-delivery check available.
func TestPipelineMatchesSequentialStream(t *testing.T) {
	frames := testFrames(t, 6)
	opts := testOptions(codec.IntraInterV1)

	var seq bytes.Buffer
	vw := core.NewVideoWriter(&seq, edgesim.NewXavier(edgesim.Mode15W), opts)
	for _, f := range frames {
		if _, err := vw.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := vw.Close(); err != nil {
		t.Fatal(err)
	}

	var piped bytes.Buffer
	s := New(context.Background(), Config{Options: opts, Output: &piped})
	col := NewCollector(s)
	for _, f := range frames {
		if err := s.Submit(context.Background(), f); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	results := col.Wait()
	if drops := checkOrdered(t, results, len(frames)); drops != 0 {
		t.Fatalf("%d drops under the Block policy", drops)
	}
	if !bytes.Equal(seq.Bytes(), piped.Bytes()) {
		t.Fatalf("pipelined stream (%d B) differs from sequential stream (%d B)",
			piped.Len(), seq.Len())
	}
	m := s.Metrics()
	if m.Submitted != int64(len(frames)) || m.Delivered != int64(len(frames)) || m.Dropped != 0 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.GeometrySim <= 0 || m.AttrSim <= 0 {
		t.Fatalf("per-stage device ledgers empty: geom=%v attr=%v", m.GeometrySim, m.AttrSim)
	}
}

// waitForDrop blocks until the transmit queue has marked at least one
// drop. While the gate is held this is a guaranteed event, not a timing
// hope: the transmitter is stuck inside Send, the transmit queue is full
// and frozen, and the packetizer holds the next frame — its only possible
// move is a push that marks the oldest P-frame.
func waitForDrop(s *Session) error {
	deadline := time.Now().Add(30 * time.Second)
	for s.gaugeTx.Snapshot().Dropped == 0 {
		if time.Now().After(deadline) {
			return errors.New("no drop marked while the transmit gate was held")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// gatedSession runs one session whose transmitter is held at a gate until
// every frame has been submitted — a deterministic stand-in for a link so
// congested nothing drains during capture. Under DropOldestP the gate
// additionally stays shut until the first drop has been marked, so the
// policy provably fired before the queue is allowed to drain. Returns the
// results and the session's final metrics.
func gatedSession(t *testing.T, frames []*geom.VoxelCloud, policy Policy, out io.Writer) ([]Result, Metrics) {
	t.Helper()
	gate := make(chan struct{})
	s := New(context.Background(), Config{
		Options: testOptions(codec.IntraInterV1),
		Link:    congested,
		Queue:   2,
		Policy:  policy,
		Output:  out,
		FrameOut: func(ctx context.Context, _ int, _ codec.FrameType, _ []byte) error {
			select {
			case <-gate:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
	})
	col := NewCollector(s)
	for _, f := range frames {
		if err := s.Submit(context.Background(), f); err != nil {
			t.Fatal(err)
		}
	}
	if policy == DropOldestP {
		if err := waitForDrop(s); err != nil {
			t.Fatal(err)
		}
	}
	close(gate)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return col.Wait(), s.Metrics()
}

// Under DropOldestP a congested link must shed P-frames (and only
// P-frames) while the stream stays in order and decodable.
func TestDropOldestPUnderCongestion(t *testing.T) {
	frames := testFrames(t, 8)
	var wire bytes.Buffer
	results, m := gatedSession(t, frames, DropOldestP, &wire)

	drops := checkOrdered(t, results, len(frames))
	if drops == 0 {
		t.Fatal("no P-frames dropped although the link was fully congested")
	}
	if m.Dropped != int64(drops) || m.Delivered != int64(len(frames)-drops) {
		t.Fatalf("metrics disagree with results: %+v vs %d drops", m, drops)
	}
	tx := m.Queues[3]
	if tx.MaxDepth > 2 {
		t.Fatalf("transmit queue watermark %d exceeds capacity 2", tx.MaxDepth)
	}
	if tx.Dropped != int64(drops) {
		t.Fatalf("gauge dropped=%d, results dropped=%d", tx.Dropped, drops)
	}

	// The surviving stream must decode: P-frames predict from the I-frame,
	// so shedding P-frames never breaks later frames.
	vr, err := core.NewVideoReader(bytes.NewReader(wire.Bytes()), edgesim.NewXavier(edgesim.Mode15W))
	if err != nil {
		t.Fatal(err)
	}
	decoded := 0
	for {
		_, _, err := vr.ReadFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("decoding survivor frame %d: %v", decoded, err)
		}
		decoded++
	}
	if decoded != len(frames)-drops {
		t.Fatalf("decoded %d frames, want %d survivors", decoded, len(frames)-drops)
	}
}

// The Block policy never drops, whatever the congestion.
func TestBlockPolicyIsLossless(t *testing.T) {
	frames := testFrames(t, 8)
	results, m := gatedSession(t, frames, Block, nil)
	if drops := checkOrdered(t, results, len(frames)); drops != 0 {
		t.Fatalf("%d drops under Block policy", drops)
	}
	if m.Delivered != int64(len(frames)) {
		t.Fatalf("delivered %d of %d", m.Delivered, len(frames))
	}
}

// Cancelling mid-GOP must tear the whole pipeline down promptly: Submit
// refuses further frames, Results closes, Close reports the cancellation.
func TestGracefulCancelMidGOP(t *testing.T) {
	frames := testFrames(t, 6)
	s := New(context.Background(), Config{
		Options: testOptions(codec.IntraInterV1),
		Queue:   2,
		// The link is stuck: only cancellation releases the transmitter.
		FrameOut: func(ctx context.Context, _ int, _ codec.FrameType, _ []byte) error {
			<-ctx.Done()
			return ctx.Err()
		},
	})
	col := NewCollector(s)
	// Fill the pipeline partway into the second GOP (frames 0..4).
	for _, f := range frames[:5] {
		if err := s.Submit(context.Background(), f); err != nil {
			t.Fatal(err)
		}
	}
	s.Cancel()
	if err := s.Submit(context.Background(), frames[5]); !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit after Cancel = %v, want context.Canceled", err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Close = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after Cancel: pipeline failed to drain")
	}
	for _, r := range col.Wait() {
		if r.Dropped {
			t.Fatalf("frame %d reported dropped on cancellation", r.Seq)
		}
	}
}

// A parent-context cancellation aborts the session the same way Cancel does.
func TestParentContextCancellation(t *testing.T) {
	frames := testFrames(t, 3)
	ctx, cancel := context.WithCancel(context.Background())
	s := New(ctx, Config{
		Options: testOptions(codec.IntraOnly),
		Queue:   1,
		FrameOut: func(sctx context.Context, _ int, _ codec.FrameType, _ []byte) error {
			<-sctx.Done()
			return sctx.Err()
		},
	})
	col := NewCollector(s)
	for _, f := range frames {
		if err := s.Submit(context.Background(), f); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	if err := s.Close(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Close = %v, want context.Canceled", err)
	}
	col.Wait()
}

// A transport failure surfaces as the session error.
func TestTransportErrorAborts(t *testing.T) {
	frames := testFrames(t, 2)
	boom := errors.New("link down")
	s := New(context.Background(), Config{
		Options:  testOptions(codec.IntraOnly),
		FrameOut: func(context.Context, int, codec.FrameType, []byte) error { return boom },
	})
	col := NewCollector(s)
	for _, f := range frames {
		if err := s.Submit(context.Background(), f); err != nil {
			break // pipeline may already have aborted
		}
	}
	if err := s.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close = %v, want transport error", err)
	}
	col.Wait()
}

// The acceptance test: ≥2 concurrent sessions, ≥8 frames each in an IPP
// GOP, full pipeline, congested link. Verifies per-session in-order
// delivery, bounded queue depth, and that only P-frames are dropped.
// Run with -race: the sessions share nothing but the Go runtime.
func TestMultiSessionCongestedRace(t *testing.T) {
	const nSessions, nFrames = 2, 9
	frames := testFrames(t, nFrames)

	var wg sync.WaitGroup
	errs := make(chan error, nSessions)
	for sid := 0; sid < nSessions; sid++ {
		wg.Add(1)
		go func(sid int) {
			defer wg.Done()
			gate := make(chan struct{})
			s := New(context.Background(), Config{
				Options: testOptions(codec.IntraInterV1),
				Link:    congested,
				Queue:   2,
				Policy:  DropOldestP,
				FrameOut: func(ctx context.Context, _ int, _ codec.FrameType, _ []byte) error {
					select {
					case <-gate:
						return nil
					case <-ctx.Done():
						return ctx.Err()
					}
				},
			})
			col := NewCollector(s)
			for _, f := range frames {
				if err := s.Submit(context.Background(), f); err != nil {
					errs <- fmt.Errorf("session %d submit: %w", sid, err)
					return
				}
			}
			if err := waitForDrop(s); err != nil {
				errs <- fmt.Errorf("session %d: %w", sid, err)
				s.Cancel()
				s.Close()
				return
			}
			close(gate)
			if err := s.Close(); err != nil {
				errs <- fmt.Errorf("session %d close: %w", sid, err)
				return
			}
			results := col.Wait()
			drops := 0
			for i, r := range results {
				if r.Seq != i {
					errs <- fmt.Errorf("session %d: result %d has seq %d", sid, i, r.Seq)
					return
				}
				if r.Dropped {
					drops++
					if r.Stats.Type != codec.PFrame {
						errs <- fmt.Errorf("session %d dropped a %v frame", sid, r.Stats.Type)
						return
					}
				} else if i%3 == 0 && r.Stats.Type != codec.IFrame {
					errs <- fmt.Errorf("session %d: frame %d should open a GOP, got %v", sid, i, r.Stats.Type)
					return
				}
			}
			if len(results) != nFrames {
				errs <- fmt.Errorf("session %d: %d results", sid, len(results))
				return
			}
			if drops == 0 {
				errs <- fmt.Errorf("session %d: no drops under full congestion", sid)
				return
			}
			m := s.Metrics()
			for _, q := range m.Queues {
				if q.MaxDepth > 2 {
					errs <- fmt.Errorf("session %d: queue %s watermark %d exceeds capacity", sid, q.Name, q.MaxDepth)
					return
				}
			}
			if m.Delivered+m.Dropped != nFrames {
				errs <- fmt.Errorf("session %d: delivered %d + dropped %d != %d", sid, m.Delivered, m.Dropped, nFrames)
			}
		}(sid)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// Paced transmission actually spends wall time proportional to the
// modelled link latency, so a paced congested session backpressures in
// real time (smoke-level check; precise pacing is not asserted).
func TestPacedTransmitSmoke(t *testing.T) {
	frames := testFrames(t, 3)
	s := New(context.Background(), Config{
		Options: testOptions(codec.IntraOnly),
		Link:    congested,
		Pace:    0.001, // 1 ms real per simulated second
	})
	col := NewCollector(s)
	start := time.Now()
	for _, f := range frames {
		if err := s.Submit(context.Background(), f); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	col.Wait()
	if elapsed := time.Since(start); elapsed <= 0 {
		t.Fatalf("elapsed = %v", elapsed)
	}
	if m := s.Metrics(); m.LinkTime <= 0 {
		t.Fatalf("no link time accounted: %+v", m)
	}
}

// Lookahead > 1 runs concurrent geometry workers; the wire stream must stay
// byte-identical to the sequential encode (in-order collector, GOP reference
// handoff intact) and the summed geometry ledgers must stay populated.
func TestLookaheadMatchesSequentialStream(t *testing.T) {
	frames := testFrames(t, 9)
	opts := testOptions(codec.IntraInterV1)

	var seq bytes.Buffer
	vw := core.NewVideoWriter(&seq, edgesim.NewXavier(edgesim.Mode15W), opts)
	for _, f := range frames {
		if _, err := vw.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := vw.Close(); err != nil {
		t.Fatal(err)
	}

	for _, look := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("lookahead=%d", look), func(t *testing.T) {
			var piped bytes.Buffer
			s := New(context.Background(), Config{Options: opts, Lookahead: look, Output: &piped})
			col := NewCollector(s)
			for _, f := range frames {
				if err := s.Submit(context.Background(), f); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			results := col.Wait()
			if drops := checkOrdered(t, results, len(frames)); drops != 0 {
				t.Fatalf("%d drops under the Block policy", drops)
			}
			if !bytes.Equal(seq.Bytes(), piped.Bytes()) {
				t.Fatalf("lookahead=%d stream (%d B) differs from sequential stream (%d B)",
					look, piped.Len(), seq.Len())
			}
			m := s.Metrics()
			if m.GeometrySim <= 0 || m.AttrSim <= 0 {
				t.Fatalf("device ledgers empty: geom=%v attr=%v", m.GeometrySim, m.AttrSim)
			}
		})
	}
}

// A lookahead session must also cancel cleanly while geometry workers are
// mid-flight (the collector and dispatcher drain without deadlock).
func TestLookaheadCancelMidStream(t *testing.T) {
	frames := testFrames(t, 8)
	s := New(context.Background(), Config{
		Options:   testOptions(codec.IntraOnly),
		Lookahead: 3,
	})
	col := NewCollector(s)
	for i, f := range frames {
		if err := s.Submit(context.Background(), f); err != nil {
			t.Fatal(err)
		}
		if i == 4 {
			s.Cancel()
			break
		}
	}
	_ = s.Close()
	col.Wait() // must terminate
}
