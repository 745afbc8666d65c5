package stream

// The serving stack's scenario table. A row is one scenario: the shared
// encode (options and frames), the server (parity group, MTU, viewer queue),
// a viewer mix drawn from fanout-1k's four kinds — whole frame,
// culled camera, one layer, MTU 1200 — a link profile (clean, seeded i.i.d.
// or Gilbert–Elliott faults, drop-rate steps, a targeted drop) and a
// control/churn script. The runner drives a Server through one LossyPipe per
// viewer on the pipe's virtual clock, in lockstep: frame i is submitted once
// every viewer has sent frame i-1 and its receiver has answered, and the
// viewers take their turns in the order the row lists them, so every packet,
// fault draw, NACK, feedback report and knob move happens in one order — a
// row replays identically from its seeds at any GOMAXPROCS, under -race and
// at any shard count. A burst row instead submits every frame while every
// viewer is held in its first send.
//
// testdata/scenarios.txt pins one line per viewer: its frame fates (D, C, S:
// decoded, concealed, skipped; upper case for I-frames), the SHA-256 of the
// frames' recovery delays on the virtual clock, the flags of its fresh data
// packets, the points it decoded, the SHA-256 of every packet it
// sent (wire) and of its fresh data packets with the stream id zeroed
// (data), and its, its receiver's and its link's counters. The first
// viewer's line also carries the server's counters and, with Options.Adapt
// on, the controller's counters and the SHA-256 of its knobs after every
// frame. Each row runs under one test — the end-to-end test it replaced, or
// TestScenarios — which also holds the row to its floors and invariants, and
// runs a multi-viewer row (at four shards) again at one shard. Every run
// also checks, packet by packet, that a data packet is its own header and
// payload framed from scratch, a parity packet cancels against the viewer's
// data packets and a retransmit is the original packet plus FlagRetransmit;
// and that every frame a faulty link's receiver decodes equals what a clean
// receiver of the same packets decodes.
//
//	go test ./pcc/stream -run TestScenarios -update
//
// rewrites the file from the serving stack as it is; review it as a diff.

import (
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"hash"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/linksim"
	"repro/internal/metrics"
	"repro/internal/viewport"
)

var update = flag.Bool("update", false, "rewrite testdata/scenarios.txt from the serving stack as it is")

const scenariosPath = "testdata/scenarios.txt"

// scenario is one row of the table.
type scenario struct {
	name string
	// test is the test the row runs under, as Test/subtest, or Test alone
	// for a subtest named by the row (default TestScenarios).
	test   string
	video  string // dataset video (default loot)
	frames int
	scale  float64
	opts   codec.Options
	// The server: parity group size, MTU and viewer queue.
	fec, mtu, queue int
	viewers         string       // the viewer mix, one token per viewer (parseViewers)
	burst           bool         // every frame in while every viewer waits in its first send
	link            linksim.Link // default linksim.WiFi
	faults          linksim.FaultProfile
	lossy           []int // the viewers behind faults (nil: all)
	// drop loses packets before the link: a targeted loss. hold keeps one
	// packet back until the viewer's next packet has crossed the link: a
	// targeted reorder.
	drop     func(Packet) bool
	hold     func(PacketHeader) bool
	feedback int // ReceiverConfig.FeedbackEvery (default 4)
	events   []event
	// churn flips flipper k's subscription or camera for the n-th time:
	// scripted before every frame from frame 1 on, then, in a second run,
	// from goroutines racing the sends (raceChurn).
	churn    func(sv *Server, v *Viewer, n, k int) error
	flippers []int
	check    func(*testing.T, *scenarioRun)
}

// afterClose is an event's frame for the end of the stream: after
// Server.Close, before the receivers finish.
const afterClose = -1

// event is one step of a row's script: do runs on viewer v before frame at
// is submitted (at == frames: after the last one), holding v's turn.
type event struct {
	at, v int
	do    func(*scenarioRun, *scenarioViewer)
}

// viewerSpec is one viewer of a row, parsed from a token: a kind — whole,
// culled (awayCamera), base (one layer), layersN, mtuN, or camN (awayCamera
// moved N units, at MTU 400+8N) — then @N to attach before frame N, /N to
// detach before frame N, and !, a transport whose every send fails.
type viewerSpec struct {
	label       string
	cfg         ViewerConfig
	join, leave int
	fail        bool
}

var viewerToken = regexp.MustCompile(`^([a-z]+?)(\d*)(?:@(\d+))?(?:/(\d+))?(!?)$`)

func parseViewers(mix string) []viewerSpec {
	var specs []viewerSpec
	for i, tok := range strings.Fields(mix) {
		m := viewerToken.FindStringSubmatch(tok)
		if m == nil {
			panic("bad viewer token " + tok)
		}
		n, _ := strconv.Atoi(m[2])
		s := viewerSpec{label: fmt.Sprintf("v%d-%s", i, tok), fail: m[5] == "!"}
		s.join, _ = strconv.Atoi(m[3])
		s.leave, _ = strconv.Atoi(m[4])
		cam := awayCamera()
		switch m[1] {
		case "whole":
		case "culled":
			s.cfg.Viewport = &cam
		case "base":
			s.cfg.Layers = 1
		case "layers":
			s.cfg.Layers = uint8(n)
		case "mtu":
			s.cfg.MTU = n
		case "cam":
			cam.Pos[0] += float64(n)
			s.cfg.Viewport, s.cfg.MTU = &cam, 400+8*n
		default:
			panic("bad viewer kind " + tok)
		}
		specs = append(specs, s)
	}
	return specs
}

// scenarioViewer is one viewer of a run and everything its packets did.
type scenarioViewer struct {
	viewerSpec
	v    *Viewer
	fl   *linksim.FaultyLink
	pipe *LossyPipe
	// ref is a clean receiver fed every fresh data packet before the link,
	// behind a faulty link only: what the viewer's receiver must decode.
	ref       *Receiver
	refClouds []*geom.VoxelCloud
	outcomes  []DecodedFrame
	reports   []Feedback
	// Every packet sent, and the fresh data packets with the stream id
	// zeroed; fresh holds those in order, sent by sequence number; sends
	// is every packet's header in send order.
	wire, data hash.Hash
	fresh      [][]byte
	sends      []PacketHeader
	held       []byte // the packet hold keeps back
	sent       map[uint32][]byte
	flags      map[byte]bool
	layered    map[uint32]bool // frames a FlagLayered data packet carried
	m          ViewerMetrics
	rx         metrics.RecoverySnapshot
}

// scenarioRun is one run of a row.
type scenarioRun struct {
	*scenario
	t       *testing.T
	sv      *Server
	viewers []*scenarioViewer
	snaps   []codec.ControllerSnapshot // after every lockstep frame
	atBase  []bool
	m       ServerMetrics

	mu    sync.Mutex
	cond  *sync.Cond
	turn  int    // the viewer whose packets may move, or nobody, or anyone
	gated []bool // the viewers waiting for their turn
	kicks chan struct{}
}

// The turn of nobody, and of anyone: no gate.
const nobody, anyone = -2, -1

// runScenario runs a row at a shard count (0: one for one viewer, four for
// more) and checks what every run must hold; it pins nothing.
func runScenario(t *testing.T, row *scenario, shards int) *scenarioRun {
	t.Helper()
	frames := videoFrames(t, cmp.Or(row.video, "loot"), row.frames, row.scale)
	specs := parseViewers(row.viewers)
	r := &scenarioRun{scenario: row, t: t, turn: nobody, gated: make([]bool, len(specs)), kicks: make(chan struct{}, 1)}
	r.cond = sync.NewCond(&r.mu)
	r.sv = NewServer(context.Background(), ServerConfig{Options: row.opts, Shards: cmp.Or(shards, min(len(specs), 4)),
		MTU: row.mtu, ViewerQueue: row.queue, FEC: FECConfig{GroupLen: row.fec}})
	for i, s := range specs {
		r.viewers = append(r.viewers, r.newViewer(i, s))
	}
	submit := func(i int) {
		if err := r.sv.Submit(context.Background(), frames[i]); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	ctrl := r.sv.Controller()
	var memo memoWatch
	for i := range frames {
		r.before(i)
		submit(i)
		if row.burst {
			// Every viewer waits in its first send; every later frame queues
			// behind it. Once sent, no cut memo may stay reachable, though
			// the shard caches keep the frames.
			r.await("every viewer to send", func() bool {
				r.mu.Lock()
				defer r.mu.Unlock()
				return !slices.Contains(r.gated, false)
			})
			for i++; i < len(frames); i++ {
				submit(i)
			}
			r.waitRelayed(len(frames))
			v := r.viewers[0].v
			v.mu.Lock()
			for _, qf := range v.queue {
				memo.watch(qf.cuts)
			}
			v.mu.Unlock()
			r.grant(anyone)
			break
		}
		for k, v := range r.viewers {
			if v.v != nil && (v.leave == 0 || i < v.leave) {
				r.lockstep(i, k, v)
			}
		}
		r.waitRelayed(i + 1)
		if ctrl != nil {
			r.snaps = append(r.snaps, ctrl.Snapshot())
			r.atBase = append(r.atBase, ctrl.AtBaseline())
		}
	}
	r.before(len(frames))
	if err := r.sv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	memo.waitFreed(t)
	r.grant(anyone)
	r.before(afterClose)
	for _, v := range r.viewers {
		if err := v.pipe.Finish(int(v.v.Metrics().FramesEnqueued)); err != nil {
			t.Fatalf("%s: receiver: %v", v.label, err)
		}
		if v.ref != nil {
			if err := v.ref.Finish(len(v.outcomes)); err != nil {
				t.Fatalf("%s: clean receiver: %v", v.label, err)
			}
		}
		v.m, v.rx = v.v.Metrics(), v.pipe.Receiver().Metrics()
		r.checkViewer(v)
	}
	r.m = r.sv.Metrics()
	return r
}

func (r *scenarioRun) newViewer(i int, s viewerSpec) *scenarioViewer {
	v := &scenarioViewer{viewerSpec: s, wire: sha256.New(), data: sha256.New(),
		sent: map[uint32][]byte{}, flags: map[byte]bool{}, layered: map[uint32]bool{}}
	prof := linksim.FaultProfile{}
	if r.lossy == nil || slices.Contains(r.lossy, i) {
		prof = r.faults
	}
	v.fl = linksim.NewFaultyLink(cmp.Or(r.link, linksim.WiFi), prof)
	v.pipe = NewLossyPipe(v.fl, ReceiverConfig{
		Options:       r.opts,
		FeedbackEvery: cmp.Or(r.feedback, 4),
		OnFrame:       func(f DecodedFrame) { v.outcomes = append(v.outcomes, f) },
	})
	v.pipe.AttachServer(r.sv)
	send := v.pipe.rx.cfg.SendControl
	v.pipe.rx.cfg.SendControl = func(c Control) error {
		if c.Kind == ControlFeedback {
			v.reports = append(v.reports, c.Feedback)
		}
		return send(c)
	}
	if prof != (linksim.FaultProfile{}) || r.drop != nil || r.hold != nil {
		v.ref = NewReceiver(ReceiverConfig{Options: r.opts,
			OnFrame: func(f DecodedFrame) { v.refClouds = append(v.refClouds, f.Cloud) }})
	}
	return v
}

// before runs the script up to frame at: detaches, attaches, then the
// row's events and churn, each holding its viewer's turn.
func (r *scenarioRun) before(at int) {
	for _, v := range r.viewers {
		if v.leave == at && v.v != nil {
			r.sv.Detach(v.v)
		}
		if v.join == at && at < r.frames {
			cfg := v.cfg
			cfg.PacketOut = r.packetOut(v)
			var err error
			if v.v, err = r.sv.Attach(cfg); err != nil {
				r.t.Fatal(err)
			}
		}
	}
	for _, e := range r.events {
		if e.at == at {
			r.grant(e.v)
			e.do(r, r.viewers[e.v])
			r.grant(nobody)
		}
	}
	for _, k := range r.flippers {
		if at > 0 && at < r.frames {
			r.grant(k)
			if err := r.churn(r.sv, r.viewers[k].v, at, k); err != nil {
				r.t.Error(err)
			}
			r.grant(nobody)
		}
	}
}

// grant hands the turn to viewer k (or nobody); once anyone has it, it
// stays with anyone.
func (r *scenarioRun) grant(k int) {
	r.mu.Lock()
	if r.turn != anyone || k == anyone {
		r.turn = k
	}
	r.mu.Unlock()
	r.cond.Broadcast()
}

// waitRelayed waits until every shard has relayed n frames.
func (r *scenarioRun) waitRelayed(n int) {
	r.await(fmt.Sprintf("frame %d to relay", n-1), func() bool { return r.sv.relayed.Load() >= int64(n) })
}

// lockstep lets viewer k send frame i, and whatever else it has queued,
// and waits until it has: the viewer takes its turn once it waits for it,
// or once the frame is relayed and it has nothing to send.
func (r *scenarioRun) lockstep(i, k int, v *scenarioViewer) {
	idle := func() bool {
		v.v.mu.Lock()
		defer v.v.mu.Unlock()
		return r.sv.relayed.Load() > int64(i) && (v.v.err != nil || v.v.framesSent == int64(v.v.nextIdx))
	}
	r.await(v.label+" to wait for its turn", func() bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.gated[k] || idle()
	})
	r.grant(k)
	r.await(v.label+" to send its queue", idle)
	r.grant(nobody)
}

// await waits until done holds, rechecking on every kick from a sender
// and at least every millisecond. A send's last steps after its last kick
// take microseconds, so it yields a few times before it blocks.
func (r *scenarioRun) await(what string, done func() bool) {
	deadline := time.Now().Add(10 * time.Second)
	for spin := 0; !done(); spin++ {
		if spin < 64 {
			runtime.Gosched()
			continue
		}
		select {
		case <-r.kicks:
			spin = 0
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			r.t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// kick wakes await.
func (r *scenarioRun) kick() {
	select {
	case r.kicks <- struct{}{}:
	default:
	}
}

// packetOut is viewer v's PacketOut: wait for the turn, check and record
// the packet, then the targeted drop and the viewer's pipe.
func (r *scenarioRun) packetOut(v *scenarioViewer) PacketSendFunc {
	k := slices.Index(r.viewers, v)
	return func(ctx context.Context, pkt []byte) error {
		defer r.kick()
		r.mu.Lock()
		for r.turn != anyone && r.turn != k {
			r.gated[k] = true
			r.kick()
			r.cond.Wait()
		}
		r.gated[k] = false
		r.mu.Unlock()
		if v.fail {
			return errors.New("viewer transport down")
		}
		p, err := ParsePacket(pkt)
		if err != nil {
			r.t.Errorf("%s sent a bad packet: %v", v.label, err)
			return err
		}
		v.wire.Write(pkt)
		v.sends = append(v.sends, p.Header)
		switch h := p.Header; {
		case h.Flags&FlagRetransmit != 0:
			want := bytes.Clone(v.sent[h.Seq])
			if want != nil {
				want[3] |= FlagRetransmit
			}
			if !bytes.Equal(pkt, want) {
				r.t.Errorf("%s: the retransmit of seq %d is not the original packet plus FlagRetransmit", v.label, h.Seq)
			}
		case h.Flags&FlagParity != 0:
			pg, err := ParseParity(p.Payload)
			acc := bytes.Clone(pg.Body)
			for j := uint32(0); err == nil && j < uint32(pg.Count); j++ {
				var d Packet
				if d, err = ParsePacket(v.sent[pg.BaseSeq+j*uint32(pg.Stride)]); err == nil {
					xorRecord(acc, d.Payload)
				}
			}
			if err != nil || h.Flags&FlagTiled != 0 || slices.ContainsFunc(acc, func(b byte) bool { return b != 0 }) {
				r.t.Errorf("%s: parity group %+v (flags %02x) does not cancel against its data packets (%v)", v.label, pg, h.Flags, err)
			}
		default:
			if !bytes.Equal(pkt, MarshalPacket(h, p.Payload)) {
				r.t.Errorf("%s: data packet seq %d differs from its from-scratch framing", v.label, h.Seq)
			}
			v.fresh = append(v.fresh, pkt)
			v.sent[h.Seq] = pkt
			v.data.Write(pkt[:4])
			v.data.Write(make([]byte, 4))
			v.data.Write(pkt[8:])
			v.flags[h.Flags] = true
			if h.Flags&FlagLayered != 0 {
				v.layered[h.FrameIndex] = true
			}
			if v.ref != nil {
				v.ref.Ingest(bytes.Clone(pkt))
			}
		}
		if r.drop != nil && r.drop(p) {
			return nil
		}
		if r.hold != nil && v.held == nil && r.hold(p.Header) {
			v.held = pkt
			return nil
		}
		if err := v.pipe.PacketOut(ctx, pkt); err != nil || v.held == nil {
			return err
		}
		held := v.held
		v.held = nil
		return v.pipe.PacketOut(ctx, held)
	}
}

// checkViewer holds a viewer to the no-silent-corruption contract: one
// outcome per frame it queued, in order, each either decoded as a clean
// receiver decodes it or concealed or skipped with a typed error.
func (r *scenarioRun) checkViewer(v *scenarioViewer) {
	t := r.t
	if (v.m.Err != nil) != v.fail {
		t.Errorf("%s: transport error %v", v.label, v.m.Err)
	}
	if int64(len(v.outcomes)) != v.m.FramesEnqueued || v.rx.Frames() != v.m.FramesEnqueued {
		t.Fatalf("%s: %d outcomes, %d counted, for %d frames", v.label, len(v.outcomes), v.rx.Frames(), v.m.FramesEnqueued)
	}
	for i, f := range v.outcomes {
		switch {
		case f.Index != i:
			t.Fatalf("%s: outcome %d is frame %d", v.label, i, f.Index)
		case f.Status == FrameDecoded:
			if v.ref != nil && !cloudsEqual(f.Cloud, v.refClouds[i]) {
				t.Errorf("%s frame %d: the decoded cloud differs from the clean receiver's (silent corruption)", v.label, i)
			}
		case f.Err == nil || (f.Status == FrameSkipped) != (f.Cloud == nil):
			t.Errorf("%s frame %d: %v with error %v and cloud %v", v.label, i, f.Status, f.Err, f.Cloud != nil)
		}
	}
}

func cloudsEqual(a, b *geom.VoxelCloud) bool {
	return a != nil && b != nil && a.Depth == b.Depth && slices.Equal(a.Voxels, b.Voxels)
}

// lines is what the run pins: one line of name=value fields per viewer.
func (r *scenarioRun) lines() map[string]string {
	out := map[string]string{}
	for i, v := range r.viewers {
		delays := sha256.New()
		for _, f := range v.outcomes {
			fmt.Fprintln(delays, f.Delay)
		}
		fs := []string{"fates=" + fates(v.outcomes), "delays=" + sum(delays), "flags=" + strings.Join(flagSet(v), ","),
			"points=" + strconv.Itoa(points(v)), "wire=" + sum(v.wire), "data=" + sum(v.data)}
		fs = appendFields(fs, "", v.m)
		fs = appendFields(fs, "rx.", v.rx)
		fs = appendFields(fs, "link.", v.fl.Stats())
		if m := r.m; i == 0 {
			fs = appendFields(fs, "server.", struct {
				FramesEncoded, IFrames, Refreshes, RefreshesCoalesced, CachedJoins int64
			}{m.FramesEncoded, m.IFrames, m.Refreshes, m.RefreshesCoalesced, m.CachedJoins})
		}
		if i == 0 && len(r.snaps) > 0 {
			knobs := sha256.New()
			for _, s := range r.snaps {
				fmt.Fprintf(knobs, "%d %d %g %t\n", s.Knobs.GOP, s.Knobs.QScale, s.Knobs.Threshold, s.Probing)
			}
			fs = append(fs, "knobs="+sum(knobs))
			fs = appendFields(fs, "ctrl.", r.snaps[len(r.snaps)-1].Counters)
		}
		out[v.label] = strings.Join(fs, " ")
	}
	return out
}

// appendFields appends every non-zero field of struct s, nested structs
// flattened, but the wall-clock and modelled-energy ones no seed fixes.
func appendFields(fs []string, prefix string, s any) []string {
	v := reflect.ValueOf(s)
	for i := range v.NumField() {
		f, name := v.Field(i), v.Type().Field(i).Name
		switch {
		case slices.Contains([]string{"Queue", "JoinLatency", "LinkTime", "TxEnergyJ", "RxEnergyJ", "Err"}, name) || f.IsZero():
		case f.Kind() == reflect.Struct:
			fs = appendFields(fs, prefix+name+".", f.Interface())
		default:
			fs = append(fs, fmt.Sprintf("%s%s=%v", prefix, name, f.Interface()))
		}
	}
	return fs
}

// fields splits a line into its fields by name.
func fields(line string) map[string]string {
	m := map[string]string{}
	for _, kv := range strings.Fields(line) {
		k, v, _ := strings.Cut(kv, "=")
		m[k] = v
	}
	return m
}

var (
	goldenMu sync.Mutex
	golden   map[string]string // row/viewer -> line
)

// goldenLine is one line of the testdata, which it reads once.
func goldenLine(t *testing.T, key string) string {
	t.Helper()
	goldenMu.Lock()
	defer goldenMu.Unlock()
	if golden == nil {
		data, err := os.ReadFile(scenariosPath)
		if err != nil && !(*update && os.IsNotExist(err)) {
			t.Fatal(err)
		}
		golden = map[string]string{}
		for _, line := range strings.Split(string(data), "\n") {
			if key, fs, ok := strings.Cut(line, "\t"); ok && line[0] != '#' {
				golden[key] = fs
			}
		}
	}
	return golden[key]
}

// pin holds a run's lines to the row's in the testdata (or, under -update,
// records them), naming the row, the viewer and the field of a mismatch.
func pin(t *testing.T, row *scenario, got map[string]string) {
	t.Helper()
	for label, line := range got {
		key := row.name + "/" + label
		want := goldenLine(t, key)
		switch {
		case *update:
			goldenMu.Lock()
			golden[key] = line
			goldenMu.Unlock()
		case want == "":
			t.Errorf("%s: testdata has no line: run TestScenarios with -update", key)
		case line != want:
			g, w := fields(line), fields(want)
			for _, name := range slices.Sorted(maps.Keys(fields(line + " " + want))) {
				if g[name] != w[name] {
					t.Errorf("%s: field %s is %q, testdata has %q", key, name, g[name], w[name])
				}
			}
		}
	}
}

// runScenarios runs the rows that run under t — under -update,
// TestScenarios runs every row and records its lines.
func runScenarios(t *testing.T) {
	t.Parallel()
	for i := range scenarios {
		row := &scenarios[i]
		top, sub, ok := strings.Cut(cmp.Or(row.test, "TestScenarios"), "/")
		if !ok {
			sub = row.name
		}
		if top != t.Name() && !(*update && t.Name() == "TestScenarios") {
			continue
		}
		t.Run(sub, func(t *testing.T) {
			t.Parallel()
			r := runScenario(t, row, 0)
			pin(t, row, r.lines())
			if row.check != nil {
				row.check(t, r)
			}
			if len(r.viewers) > 1 && !*update {
				pin(t, row, runScenario(t, row, 1).lines())
			}
			if row.churn != nil && !*update {
				t.Run("racing", func(t *testing.T) { row.check(t, raceChurn(t, *row)) })
			}
		})
	}
}

// TestScenarios runs the rows no other test runs, and fails on a row whose
// test does not call runScenarios (the row would never run) and on a
// testdata line no row makes; under -update it runs every row and rewrites
// the file.
func TestScenarios(t *testing.T) {
	goldenLine(t, "")
	var tests, keys []string
	paths, _ := filepath.Glob("*_test.go")
	for _, path := range paths {
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range file.Decls {
			ast.Inspect(d, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && fmt.Sprint(call.Fun) == "runScenarios" {
					tests = append(tests, d.(*ast.FuncDecl).Name.Name)
				}
				return true
			})
		}
	}
	for _, row := range scenarios {
		if top, _, _ := strings.Cut(cmp.Or(row.test, "TestScenarios"), "/"); !slices.Contains(tests, top) {
			t.Errorf("row %q runs under %s, which does not call runScenarios", row.name, top)
		}
		for _, s := range parseViewers(row.viewers) {
			keys = append(keys, row.name+"/"+s.label)
		}
	}
	for key := range golden {
		if !*update && !slices.Contains(keys, key) {
			t.Errorf("testdata has a line for %q, which no row makes", key)
		}
	}
	t.Cleanup(func() {
		if !*update {
			return
		}
		b := []byte("# The serving-stack scenario table (scenario_test.go), one line per row and viewer;\n" +
			"# rewrite it with go test ./pcc/stream -run TestScenarios -update\n")
		goldenMu.Lock()
		for _, key := range keys {
			b = fmt.Appendf(b, "%s\t%s\n", key, golden[key])
		}
		goldenMu.Unlock()
		if err := os.WriteFile(scenariosPath, b, 0o644); err != nil {
			t.Fatal(err)
		}
	})
	runScenarios(t)
}

// The end-to-end tests the table replaced: each runs its rows.
func TestLossyStreamNoFaults(t *testing.T)                   { runScenarios(t) }
func TestLossyStreamRecovers5PercentLoss(t *testing.T)       { runScenarios(t) }
func TestLossyStreamDeterministic(t *testing.T)              { runScenarios(t) }
func TestLossyStreamIFrameLossForcesRefresh(t *testing.T)    { runScenarios(t) }
func TestReceiverResyncsAfterBlackout(t *testing.T)          { runScenarios(t) }
func TestServerSlowViewerOverflowResync(t *testing.T)        { runScenarios(t) }
func TestReceiverSenderDropIsNotLoss(t *testing.T)           { runScenarios(t) }
func TestFECOffByteIdentical(t *testing.T)                   { runScenarios(t) }
func TestFECRepairsSingleLossWithoutRetransmit(t *testing.T) { runScenarios(t) }
func TestFECReassemblyUnderFaults(t *testing.T)              { runScenarios(t) }
func TestFECDeterministic(t *testing.T)                      { runScenarios(t) }
func TestFeedbackNetsRecoveredLosses(t *testing.T)           { runScenarios(t) }
func TestReceiverEmitsFeedback(t *testing.T)                 { runScenarios(t) }
func TestAdaptLeavesParityAlone(t *testing.T)                { runScenarios(t) }
func TestAdaptConvergesOnDropStep(t *testing.T)              { runScenarios(t) }
func TestAdaptDeterministic(t *testing.T)                    { runScenarios(t) }
func TestServerEncodeOnceFanOut(t *testing.T)                { runScenarios(t) }
func TestServerFECParityFanout(t *testing.T)                 { runScenarios(t) }
func TestServerLayeredFullSubByteIdentical(t *testing.T)     { runScenarios(t) }
func TestViewerLayerLatch(t *testing.T)                      { runScenarios(t) }
func TestServerLayerSubscriptionSweep(t *testing.T)          { runScenarios(t) }
func TestServerLayerChurn(t *testing.T)                      { runScenarios(t) }
func TestServerViewportCulling(t *testing.T)                 { runScenarios(t) }
func TestServerViewportChurn(t *testing.T)                   { runScenarios(t) }
func TestServerLateJoinCachedKeyframe(t *testing.T)          { runScenarios(t) }
func TestServerControlCoalescing(t *testing.T)               { runScenarios(t) }
func TestServerFeedbackAggregation(t *testing.T)             { runScenarios(t) }
func TestServerViewerErrorIsolation(t *testing.T)            { runScenarios(t) }
func TestViewerTailNACKAfterClose(t *testing.T)              { runScenarios(t) }
func TestReceiverNACKsOnEvidence(t *testing.T)               { runScenarios(t) }

// raceChurn runs a churn row with its flips racing the sends instead of
// scripted between them (under -race in CI): from frame 0 until the Server
// has closed, one goroutine per flipper calls churn for n = 0, 1, …, and no
// viewer waits for a turn. The run pins nothing; every run's checks still
// hold — among them that each retransmit of a racing, layer-truncated send
// is the original byte for byte.
func raceChurn(t *testing.T, row scenario) *scenarioRun {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	halt := sync.OnceFunc(func() { cancel(); wg.Wait() })
	t.Cleanup(halt)
	flippers := row.flippers
	row.flippers = nil
	row.events = []event{{0, 0, func(r *scenarioRun, _ *scenarioViewer) {
		r.grant(anyone)
		for _, k := range flippers {
			v := r.viewers[k].v
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; ctx.Err() == nil; n++ {
					if err := row.churn(r.sv, v, n, k); err != nil {
						t.Error(err)
						return
					}
					_ = v.Metrics()
					time.Sleep(50 * time.Microsecond)
				}
			}()
		}
	}}, {afterClose, 0, func(*scenarioRun, *scenarioViewer) { halt() }}}
	return runScenario(t, &row, 0)
}

// videoFrames returns the first n frames of a video at a scale. Frames are
// generated once per video and scale and shared read-only across tests.
func videoFrames(t testing.TB, video string, n int, scale float64) []*geom.VoxelCloud {
	t.Helper()
	spec, err := dataset.SpecByName(video)
	if err != nil {
		t.Fatal(err)
	}
	frameCache.Lock()
	defer frameCache.Unlock()
	key := fmt.Sprintf("%s@%g", video, scale)
	have := frameCache.m[key]
	if len(have) < n {
		g := dataset.NewGenerator(spec, scale)
		for i := len(have); i < n; i++ {
			f, err := g.Frame(i)
			if err != nil {
				t.Fatal(err)
			}
			have = append(have, f)
		}
		frameCache.m[key] = have
	}
	return have[:n:n]
}

var frameCache = struct {
	sync.Mutex
	m map[string][]*geom.VoxelCloud
}{m: map[string][]*geom.VoxelCloud{}}

// The rows' encodes.
var (
	v1        = testOptions(codec.IntraInterV1)
	tiled4    = tiledTestOptions()
	layered0  = layeredTestOptions(0)
	layered4  = layeredTestOptions(4)
	adaptV2   = adaptOptions(codec.IntraInterV2)
	adaptMix  = withOpts(layered4, func(o *codec.Options) { o.Adapt.Enabled = true })
	gop6      = withOpts(v1, func(o *codec.Options) { o.GOP = 6 })
	intraOnly = testOptions(codec.IntraOnly)
	// sweepV1 and sweepV2 carry the paper's segment counts scaled to 0.008,
	// so a segment keeps the point population it has at full scale.
	sweepV1 = scaledOptions(codec.IntraInterV1, 0.008)
	sweepV2 = withOpts(scaledOptions(codec.IntraInterV2, 0.008), func(o *codec.Options) { o.Adapt.Enabled = true })
	// layeredSession is Intra-Inter-V1 at 1500 / 2500 segments (the
	// steady-state session's counts) with three layers.
	layeredSession = withOpts(codec.OptionsFor(codec.IntraInterV1), func(o *codec.Options) {
		o.IntraAttr.Segments, o.Inter.Segments, o.Layers = 1500, 2500, 3
	})
)

func withOpts(o codec.Options, f func(*codec.Options)) codec.Options {
	f(&o)
	return o
}

func scaledOptions(d codec.Design, scale float64) codec.Options {
	return withOpts(codec.OptionsFor(d), func(o *codec.Options) {
		o.IntraAttr.Segments = max(8, int(float64(o.IntraAttr.Segments)*scale))
		o.Inter.Segments = max(8, int(float64(o.Inter.Segments)*scale))
	})
}

// One viewer behind a faulty link: the recovery design.
var cleanRow = scenario{name: "clean", test: "TestLossyStreamNoFaults", frames: 9, scale: 0.015, opts: v1, viewers: "whole",
	check: func(t *testing.T, r *scenarioRun) {
		allDecoded(t, r)
		v := r.viewers[0]
		expect(t, v.rx.NACKsSent+v.m.Retransmits+v.rx.RefreshRequests == 0, "recovery traffic on a clean link: %+v", v.rx)
	}}

var scenarios = slices.Concat([]scenario{cleanRow,
	// Parity only ever adds packets: the data packets are the clean row's.
	{name: "clean FEC 4", test: "TestFECOffByteIdentical", frames: 9, scale: 0.015, opts: v1, fec: 4, viewers: "whole",
		check: func(t *testing.T, r *scenarioRun) {
			v, clean := r.viewers[0], runScenario(t, &cleanRow, 0).viewers[0]
			expect(t, v.m.ParitySent > 0 && clean.m.ParitySent == 0 && sum(v.data) == sum(clean.data),
				"%d parity packets; the clean row's data packets %s, %s with parity", v.m.ParitySent, sum(clean.data), sum(v.data))
		}},
	{name: "loot 5%", test: "TestLossyStreamRecovers5PercentLoss/loot 5%", frames: 60, scale: 0.008, opts: v1,
		viewers: "whole", faults: iid(0.05), check: lossFloor(0.95)},
	{name: "lossy seed 7", test: "TestLossyStreamDeterministic", frames: 18, scale: 0.008, opts: v1, viewers: "whole",
		faults: linksim.FaultProfile{DropRate: 0.08, ReorderRate: 0.05, DupRate: 0.02, BurstEvery: 300, BurstLen: 3, Seed: 7}},
	// Every packet of I-frame 6, retransmits too, is lost over a link slow
	// enough (~50 ms a packet) that the refresh request lands while frames
	// are still being encoded: the stream resyncs at a forced I-frame.
	{name: "I-frame void", test: "TestLossyStreamIFrameLossForcesRefresh", frames: 11, scale: 0.01, opts: gop6,
		viewers: "whole", link: congested, drop: func(p Packet) bool { return p.Header.FrameIndex == 6 },
		check: func(t *testing.T, r *scenarioRun) {
			v := r.viewers[0]
			expect(t, v.rx.RefreshRequests > 0 && r.m.Refreshes > 0, "%d refresh requests, %d applied", v.rx.RefreshRequests, r.m.Refreshes)
			resync := resyncs(t, v.outcomes, 6, 7)
			expect(t, resync%6 != 0, "the stream resynced at frame %d, an I-frame the GOP opened", resync)
			for _, f := range v.outcomes[6:resync] {
				expect(t, f.Status == FrameSkipped && (errors.Is(f.Err, codec.ErrMissingReference) || errors.Is(f.Err, ErrFrameLost)),
					"frame %d: %v (%v) before the resync", f.Index, f.Status, f.Err)
			}
		}},
	// A link that drops everything over frames 6-14, more packets than
	// maxSeqJump at MTU 64: the first packet after it is dropped as a jump,
	// the next resyncs, and the stream decodes again from the next I-frame.
	{name: "blackout", test: "TestReceiverResyncsAfterBlackout", frames: 24, scale: 0.008, opts: v1, mtu: 64,
		viewers: "whole", faults: linksim.FaultProfile{Seed: 3}, events: []event{{6, 0, dropRate(1)}, {15, 0, dropRate(0)}},
		check: func(t *testing.T, r *scenarioRun) {
			v := r.viewers[0]
			expect(t, v.fl.Stats().Dropped > maxSeqJump, "the blackout dropped %d packets", v.fl.Stats().Dropped)
			expect(t, v.rx.PacketsCorrupt == 1 && len(v.pipe.rx.missing) == 0, "%d corrupt, %d still missing; want 1 and 0",
				v.rx.PacketsCorrupt, len(v.pipe.rx.missing))
			resyncs(t, v.outcomes, 6, 15)
		}},
	// The slow viewer's shed trace: a queue of 2 behind a send that blocks
	// until all 9 frames (I P P I P P I P P) are encoded — [1 2], I3
	// flushes, [3 4], P5 sheds P4, I6 flushes, [6 7], P8 sheds P7 — with
	// parity or without: frames 0, 6 and 8 decode, the receiver reads the
	// other six as sender drops and NACKs none.
	{name: "slow viewer", test: "TestServerSlowViewerOverflowResync", frames: 9, scale: 0.02, opts: v1, queue: 2,
		viewers: "whole", burst: true, check: checkShedTrace},
	{name: "slow viewer FEC 4", test: "TestReceiverSenderDropIsNotLoss", frames: 9, scale: 0.02, opts: v1, fec: 4,
		queue: 2, viewers: "whole", burst: true, check: checkShedTrace},

	// Parity, NACK and feedback.
	// One-in-23 scheduled drops never put two losses in one parity group:
	// every loss repairs with zero round trips.
	{name: "FEC drop every 23", test: "TestFECRepairsSingleLossWithoutRetransmit", frames: 30, scale: 0.008, opts: v1,
		fec: 4, viewers: "whole", faults: linksim.FaultProfile{DropEvery: 23},
		check: func(t *testing.T, r *scenarioRun) {
			allDecoded(t, r)
			v := r.viewers[0]
			expect(t, v.fl.Stats().ScheduledDrops > 0 && v.rx.FEC.ParityRepairs > 0 && v.rx.NACKsSent+v.m.Retransmits == 0 &&
				v.rx.PacketsLost == v.rx.PacketsRecovered, "%+v", v.rx)
		}},
	{name: "FEC iid", test: "TestFECReassemblyUnderFaults/iid loss dup reorder", frames: 40, scale: 0.008, opts: v1,
		fec: 4, viewers: "whole", check: lossFloor(0.97),
		faults: linksim.FaultProfile{DropRate: 0.05, DupRate: 0.02, ReorderRate: 0.03, Seed: 11}},
	{name: "FEC GE mild", test: "TestFECReassemblyUnderFaults/gilbert-elliott mild", frames: 40, scale: 0.008, opts: v1,
		fec: 4, viewers: "whole", check: lossFloor(0.90),
		faults: linksim.FaultProfile{GEBadLoss: 0.5, GEGoodToBad: 0.01, GEBadToGood: 0.4, Seed: 12}},
	{name: "FEC GE deep fades", test: "TestFECReassemblyUnderFaults/gilbert-elliott deep fades", frames: 40, scale: 0.008,
		opts: v1, fec: 4, viewers: "whole", check: lossFloor(0.80),
		faults: linksim.FaultProfile{GEBadLoss: 0.8, GEGoodToBad: 0.015, GEBadToGood: 0.25, Seed: 13}},
	{name: "FEC GE seed 21", test: "TestFECDeterministic", frames: 15, scale: 0.008, opts: v1, fec: 4, viewers: "whole",
		faults: linksim.FaultProfile{DropRate: 0.03, ReorderRate: 0.02, GEBadLoss: 0.6, GEGoodToBad: 0.02, Seed: 21}},
	// One packet lost at its first send and healed by the retransmit: the
	// feedback windows carry the NACK round trip, never a loss.
	{name: "one recovered loss", test: "TestFeedbackNetsRecoveredLosses", frames: 12, scale: 0.01, opts: v1, feedback: 3,
		viewers: "whole", drop: func(p Packet) bool { return p.Header.Flags&(FlagParity|FlagRetransmit) == 0 && p.Header.Seq == 5 },
		check: func(t *testing.T, r *scenarioRun) {
			allDecoded(t, r)
			v := r.viewers[0]
			var lost, nacks uint32
			for _, fb := range v.reports {
				lost, nacks = lost+fb.Lost, nacks+fb.NACKs
			}
			expect(t, v.rx.PacketsLost == 1 && v.rx.PacketsRecovered == 1 && lost == 0 && nacks > 0,
				"%d lost, %d recovered; the reports carry %d lost and %d NACKs", v.rx.PacketsLost, v.rx.PacketsRecovered, lost, nacks)
		}},
	// A loss is NACKed once the stream proves it, not when the timer fires.
	// Frame 4's last fragment and its group's parity are lost: frame 5's
	// first packet proves the loss, its retransmit goes out right behind
	// that packet, and the loss delays frame 4 by less than nackTimeout —
	// under a frame interval.
	{name: "tail and parity lost", test: "TestReceiverNACKsOnEvidence", frames: 9, scale: 0.01, opts: v1, fec: 4,
		viewers: "whole", drop: func(p Packet) bool {
			h := p.Header
			if h.FrameIndex != 4 || h.Flags&FlagRetransmit != 0 {
				return false
			}
			if h.Flags&FlagParity == 0 {
				return h.Frag == h.FragCount-1
			}
			pg, err := ParseParity(p.Payload)
			return err == nil && pg.BaseSeq+uint32(pg.Count-1)*uint32(pg.Stride) == pg.FrameFirstSeq+uint32(pg.FragCount)-1
		}, check: func(t *testing.T, r *scenarioRun) {
			allDecoded(t, r)
			v := r.viewers[0]
			tail := slices.IndexFunc(v.sends, func(h PacketHeader) bool {
				return h.FrameIndex == 4 && h.Flags&FlagParity == 0 && h.Frag == h.FragCount-1
			})
			by, ok := answeredAfter(v)[v.sends[tail].Seq]
			expect(t, ok && by.FrameIndex == 5 && by.Frag == 0 && by.Flags&FlagParity == 0,
				"frame 4's tail was retransmitted %t, after %+v; want after frame 5's first packet", ok, by)
			clean := *r.scenario
			clean.drop = nil
			late := v.outcomes[4].Delay - runScenario(t, &clean, 0).viewers[0].outcomes[4].Delay
			expect(t, late > 0 && late < nackTimeout, "the loss delayed frame 4 by %v, want under %v", late, nackTimeout)
		}},
	// Two losses in one parity group, which cannot repair them: the group's
	// parity proves both and NACKs them the moment it arrives.
	{name: "two losses in a group", test: "TestReceiverNACKsOnEvidence", frames: 9, scale: 0.01, opts: v1, fec: 4,
		viewers: "whole", drop: func(p Packet) bool {
			h := p.Header
			return h.FrameIndex == 4 && h.Flags&(FlagParity|FlagRetransmit) == 0 && (h.Frag == 1 || h.Frag == 2)
		}, check: func(t *testing.T, r *scenarioRun) {
			allDecoded(t, r)
			v := r.viewers[0]
			first := v.sends[slices.IndexFunc(v.sends, func(h PacketHeader) bool { return h.FrameIndex == 4 })]
			after := answeredAfter(v)
			for _, s := range []uint32{first.Seq + 1, first.Seq + 2} {
				by, ok := after[s]
				expect(t, ok && by.Flags&FlagParity != 0 && by.Seq == first.Seq, "seq %d was retransmitted %t, after %+v; want after the parity of group %d",
					s, ok, by, first.Seq)
			}
		}},
	// Frame 4's last fragment crosses behind frame 5's first packet, which
	// proves it lost: it costs one retransmit, and the late original counts
	// duplicate.
	{name: "reorder across frames", test: "TestReceiverNACKsOnEvidence", frames: 9, scale: 0.01, opts: v1,
		viewers: "whole", hold: func(h PacketHeader) bool {
			return h.FrameIndex == 4 && h.Flags&FlagRetransmit == 0 && h.Frag == h.FragCount-1
		}, check: func(t *testing.T, r *scenarioRun) {
			allDecoded(t, r)
			v := r.viewers[0]
			expect(t, v.m.Retransmits <= 1 && v.rx.PacketsDuplicate <= 1, "%d retransmits, %d duplicates; want at most 1 each",
				v.m.Retransmits, v.rx.PacketsDuplicate)
		}},
	// Reports are numbered from 1 and their windows sum to the lifetime
	// counters.
	{name: "feedback every 3", test: "TestReceiverEmitsFeedback", frames: 12, scale: 0.01, opts: v1, feedback: 3,
		viewers: "whole", check: func(t *testing.T, r *scenarioRun) {
			v := r.viewers[0]
			var frames int64
			for i, fb := range v.reports {
				expect(t, fb.Report == uint32(i+1), "report %d numbered %d", i, fb.Report)
				frames += int64(fb.Decoded + fb.Concealed + fb.Skipped)
			}
			expect(t, len(v.reports) == 4 && frames == v.rx.Frames() && v.m.FeedbackReports == 4,
				"%d reports over %d frames of %d, %d consumed; want 4 over all", len(v.reports), frames, v.rx.Frames(), v.m.FeedbackReports)
		}},
	// The controller moves encoder knobs only: under loss it degrades, and
	// the parity group stays the configured one, or none.
	{name: "adapt fec 4 20%", test: "TestAdaptLeavesParityAlone", frames: 24, scale: 0.008, opts: adaptV2, fec: 4,
		viewers: "whole", faults: linksim.FaultProfile{DropRate: 0.2, Seed: 33}, check: func(t *testing.T, r *scenarioRun) {
			expectDegraded(t, r)
			checkParityGroups(t, r.viewers[0], 4, 24)
		}},
	{name: "adapt no fec 12%", test: "TestAdaptLeavesParityAlone", frames: 24, scale: 0.008, opts: adaptV2,
		viewers: "whole", faults: linksim.FaultProfile{DropRate: 0.12, Seed: 33}, check: func(t *testing.T, r *scenarioRun) {
			expectDegraded(t, r)
			expect(t, r.viewers[0].m.ParitySent == 0, "a viewer with no parity configured sent %d parity packets", r.viewers[0].m.ParitySent)
		}},
	// The step response: a clean link, then a 15% drop step. Run with -v
	// for the knob table.
	{name: "adapt step loot", test: "TestAdaptConvergesOnDropStep/loot", frames: 48, scale: 0.008, opts: adaptV2,
		viewers: "whole", faults: linksim.FaultProfile{Seed: 42}, events: []event{{16, 0, dropRate(0.15)}}, check: stepResponse(16, 0, 12)},
	{name: "adapt step redandblack", test: "TestAdaptConvergesOnDropStep/redandblack", video: "redandblack", frames: 96,
		scale: 0.008, opts: sweepV2, viewers: "whole", faults: linksim.FaultProfile{Seed: 42},
		events: []event{{24, 0, dropRate(0.15)}, {48, 0, dropRate(0)}}, check: stepResponse(24, 48, 32)},
	{name: "adapt seed 9", test: "TestAdaptDeterministic", frames: 30, scale: 0.008, opts: adaptV2, viewers: "whole",
		faults: linksim.FaultProfile{Seed: 9}, events: []event{{10, 0, dropRate(0.15)}}},
	// The shared controller steers by the feedbackQuantile of the viewers'
	// losses, reduced through the shards' loss tables: over four viewers the
	// worst, here the culled one's, whose NACKs rebuild culled sends.
	{name: "four kinds one lossy", test: "TestServerFeedbackAggregation", frames: 24, scale: 0.02, opts: adaptMix, viewers: "whole culled base mtu1200",
		lossy: []int{1}, faults: linksim.FaultProfile{DropRate: 0.15, Seed: 5},
		check: func(t *testing.T, r *scenarioRun) {
			allDecoded(t, r, 0, 2, 3)
			expect(t, slices.ContainsFunc(r.snaps, func(s codec.ControllerSnapshot) bool { return s.Congested }),
				"the lossy viewer's feedback never congested the shared controller")
			expect(t, r.viewers[1].m.Retransmits > 0, "no culled send was NACKed")
		}},

	// Fan-out, tiles and layers.
	{name: "encode once", test: "TestServerEncodeOnceFanOut", frames: 9, scale: 0.02, opts: layered4,
		viewers: "whole culled base mtu1200", check: func(t *testing.T, r *scenarioRun) {
			allDecoded(t, r)
			expect(t, r.m.FramesEncoded == 9, "%d frames encoded for 9 submitted and four viewers", r.m.FramesEncoded)
			for _, v := range r.viewers {
				expect(t, v.m.FramesSent == 9 && v.m.FramesDropped == 0, "%s sent %d, dropped %d", v.label, v.m.FramesSent, v.m.FramesDropped)
			}
		}},
	// Four viewer kinds, two of each, and 13 cameras at MTUs of their own:
	// more (view, MTU) cuts than a frame memoises. A pair of one kind sends
	// one stream but for the stream id.
	{name: "parity fan-out", test: "TestServerFECParityFanout", frames: 6, scale: 0.02, opts: layered4, fec: 4, queue: 32,
		viewers: "whole whole mtu300 mtu300 culled culled base base cam0 cam1 cam2 cam3 cam4 cam5 cam6 cam7 cam8 cam9 cam10 cam11 cam12",
		burst:   true,
		check: func(t *testing.T, r *scenarioRun) {
			allDecoded(t, r)
			for i, v := range r.viewers {
				want := FlagTiled
				if i < 8 {
					want = []byte{0, 0, 0, 0, FlagTiled, FlagTiled, FlagTiled | FlagLayered, FlagTiled | FlagLayered}[i]
				}
				expect(t, v.m.ParitySent > 0 && slices.Equal(flagSet(v), []string{flagHex(want)}),
					"%s: data flags %v, %d parity packets", v.label, flagSet(v), v.m.ParitySent)
				expect(t, i >= 8 || i%2 == 0 || sum(v.data) == sum(r.viewers[i-1].data) && v.m.ParitySent == r.viewers[i-1].m.ParitySent,
					"%s: the stream differs from its pair's beyond the stream id", v.label)
			}
		}},
	{name: "full subscription", test: "TestServerLayeredFullSubByteIdentical", frames: 6, scale: 0.02, opts: layered0,
		viewers: "whole layers3", check: func(t *testing.T, r *scenarioRun) {
			allDecoded(t, r)
			a, b := r.viewers[0], r.viewers[1]
			expect(t, sum(a.data) == sum(b.data) && len(b.layered) == 0 && b.m.SubLayers == 0 && b.m.LayerDownswitches == 0,
				"a viewer pinned to every layer does not send the unlayered stream")
		}},
	// The latch: a pin to two of three layers before P-frame 4 truncates it;
	// clearing the pin before P-frame 5 waits for I-frame 6.
	{name: "layer latch", test: "TestViewerLayerLatch", frames: 9, scale: 0.02, opts: layered0, viewers: "whole",
		events: []event{{4, 0, setLayers(2)}, {5, 0, setLayers(0)}}, check: checkLatch(4, 5)},
	// The same through the receiver's in-band ControlLayers.
	{name: "in-band layers", test: "TestControlLayersRoundTrip", frames: 6, scale: 0.02, opts: layered0, viewers: "whole",
		events: []event{{1, 0, sendLayers(2)}, {2, 0, sendLayers(0)}}, check: checkLatch(1, 2)},
	// One layered encode (longdress at scale 0.05) to a full, a base-layer
	// and a two-layer subscription: each costs at most its share of the
	// full viewer's wire, the measured 0.440 and 0.559 plus 20%. Run with
	// -v for the table.
	{name: "subscription sweep", test: "TestServerLayerSubscriptionSweep", video: "longdress", frames: 24, scale: 0.05,
		opts: layeredSession, viewers: "whole base layers2", check: func(t *testing.T, r *scenarioRun) {
			allDecoded(t, r)
			for i, limit := range []float64{1, 0.528, 0.671} {
				v := r.viewers[i]
				ratio := float64(v.m.WireBytes) / float64(r.viewers[0].m.WireBytes)
				t.Logf("%-16s %9d wire bytes, ratio %.3f, %8.1f points/frame", v.label, v.m.WireBytes, ratio, float64(points(v))/24)
				expect(t, ratio <= limit && v.m.FramesSent == 24, "%s: wire ratio %.3f above %.3f", v.label, ratio, limit)
			}
		}},
	// Subscriptions flipping every frame, mid-GOP, locally and through the
	// Server (200 clamps), over tiled layered frames with parity; the
	// flipping viewers sit behind a lossy link, so NACKs rebuild
	// layer-truncated sends.
	{name: "layer churn", test: "TestServerLayerChurn", frames: 12, scale: 0.02, opts: layered4, fec: 4,
		viewers: "whole base whole whole", lossy: []int{2, 3}, faults: linksim.FaultProfile{DropRate: 0.05, Seed: 4},
		flippers: []int{2, 3}, churn: func(sv *Server, v *Viewer, n, k int) error {
			sub := []uint8{1, 2, 3, 0, 200}[(n+k)%5]
			if k == 3 {
				return sv.HandleControl(Control{Kind: ControlLayers, StreamID: v.StreamID(), Layers: sub})
			}
			v.SetLayers(sub)
			return nil
		},
		check: func(t *testing.T, r *scenarioRun) {
			allDecoded(t, r, 0, 1)
			full, base := r.viewers[0], r.viewers[1]
			expect(t, len(full.layered) == 0 && full.m.SubLayers == 0, "the full viewer latched a subscription: %+v", full.m)
			expect(t, slices.Equal(flagSet(base), []string{flagHex(FlagTiled | FlagLayered)}) && base.m.ParitySent > 0 &&
				base.m.SubLayers == 1 && base.m.LayerDownswitches > 0 && base.m.WireBytes < full.m.WireBytes,
				"base viewer: flags %v, %+v", flagSet(base), base.m)
			expect(t, r.viewers[2].m.Retransmits+r.viewers[3].m.Retransmits > 0, "no layer-truncated send was NACKed")
		}},
	// A config-time camera and one the receiver sends before frame 1: both
	// viewers get fewer bytes and points than the whole viewer.
	{name: "viewport culling", test: "TestServerViewportCulling", frames: 6, scale: 0.02, opts: tiled4, fec: 4,
		viewers: "whole culled whole", events: []event{{1, 2, func(_ *scenarioRun, v *scenarioViewer) {
			v.pipe.Receiver().SendViewport(awayCamera())
		}}}, check: func(t *testing.T, r *scenarioRun) {
			allDecoded(t, r)
			whole := r.viewers[0]
			expect(t, slices.Equal(flagSet(whole), []string{"00"}) && whole.m.TilesCulled+whole.m.CulledBytes == 0 && !whole.m.HasViewport,
				"the whole viewer was culled: %+v", whole.m)
			expect(t, slices.Equal(flagSet(r.viewers[1]), []string{flagHex(FlagTiled)}), "culled viewer's data flags %v", flagSet(r.viewers[1]))
			expect(t, slices.ContainsFunc(r.viewers[1].fresh, func(pkt []byte) bool {
				p, _ := ParsePacket(pkt)
				return p.Header.Tile != TileNone
			}), "no culled fragment carried a tile id")
			for k, v := range r.viewers[1:] {
				m := v.m
				expect(t, m.HasViewport && m.TilesCulled > 0 && m.CulledBytes > 0 && m.WireBytes < whole.m.WireBytes && m.ParitySent > 0,
					"%s culled nothing: %+v", v.label, m)
				for i := k; i < 6; i++ {
					expect(t, v.outcomes[i].Cloud.Len() < whole.outcomes[i].Cloud.Len(), "%s frame %d: %d points, the whole view has %d",
						v.label, i, v.outcomes[i].Cloud.Len(), whole.outcomes[i].Cloud.Len())
				}
			}
		}},
	// A camera the receiver sends before its first packet: held until a
	// packet names the stream, it arrives while frame 0 is being sent, so
	// frame 0 goes whole and every later frame is culled.
	{name: "viewport before the stream", test: "TestServerViewportCulling", frames: 6, scale: 0.02, opts: tiled4,
		viewers: "whole whole", events: []event{{0, 1, func(_ *scenarioRun, v *scenarioViewer) {
			v.pipe.Receiver().SendViewport(awayCamera())
		}}}, check: func(t *testing.T, r *scenarioRun) {
			allDecoded(t, r)
			whole, early := r.viewers[0], r.viewers[1]
			expect(t, early.m.HasViewport && early.m.ViewportUpdates == 1 && early.m.TilesCulled > 0,
				"the early camera never reached the viewer: %+v", early.m)
			for i, f := range early.outcomes {
				n, all := f.Cloud.Len(), whole.outcomes[i].Cloud.Len()
				expect(t, (i == 0) == (n == all) && n <= all, "frame %d: %d points, the whole view has %d", i, n, all)
			}
		}},
	// Cameras flipping every frame, mid-GOP: installed locally and through
	// the Server, and cleared.
	{name: "viewport churn", test: "TestServerViewportChurn", frames: 12, scale: 0.02, opts: tiled4,
		viewers: "whole whole whole whole", flippers: []int{1, 2, 3}, churn: func(sv *Server, v *Viewer, n, k int) error {
			cam := []viewport.Camera{awayCamera(), {Pos: [3]float64{2048, 2048, -2048}, Dir: [3]float64{0, 0, 1}, FOVDegrees: 60},
				{FOVDegrees: 360, MaxDist: 100}}[(n+k)%3]
			switch (n + k) % 4 {
			case 0, 1:
				v.SetViewport(cam)
			case 2:
				return sv.HandleControl(Control{Kind: ControlViewport, StreamID: v.StreamID(), Camera: cam})
			default:
				v.ClearViewport()
			}
			return nil
		},
		check: func(t *testing.T, r *scenarioRun) {
			allDecoded(t, r)
			expect(t, r.viewers[0].m.TilesCulled == 0, "the viewer without a camera was culled: %+v", r.viewers[0].m)
			for _, v := range r.viewers[1:] {
				expect(t, v.m.ViewportUpdates > 0 && v.m.TilesCulled > 0, "%s: %d viewport updates, %d tiles culled",
					v.label, v.m.ViewportUpdates, v.m.TilesCulled)
			}
		}},

	// Joins, control and failure.
	// A viewer attached mid-GOP starts from the cached I-frame 3 and decodes
	// at once, with no re-encode.
	{name: "late join", test: "TestServerLateJoinCachedKeyframe", frames: 9, scale: 0.02, opts: v1, viewers: "whole@6",
		check: func(t *testing.T, r *scenarioRun) {
			allDecoded(t, r)
			v := r.viewers[0]
			expect(t, v.m.FramesEnqueued == 4 && v.m.CachedJoin && v.outcomes[0].Type == codec.IFrame && v.rx.CachedReceived > 0,
				"the late join did not open on the cached keyframe: %+v", v.m)
			expect(t, r.m.CachedJoins == 1 && r.m.Refreshes == 0 && r.m.FramesEncoded == 9, "server: %+v", r.m)
		}},
	// Both viewers NACK seq 2 three times and ask for a refresh before
	// frame 7: one retransmit each, one GOP restart (frame 7 an I-frame);
	// a NACK for viewer 0 after it detached is dropped.
	{name: "control coalescing", test: "TestServerControlCoalescing", frames: 8, scale: 0.02, opts: v1,
		viewers: "whole/8 whole", events: []event{
			control(7, 0, Control{Kind: ControlNACK, Seqs: []uint32{2, 2, 2}}),
			control(7, 1, Control{Kind: ControlNACK, Seqs: []uint32{2, 2, 2}}),
			control(7, 0, Control{Kind: ControlRefresh}), control(7, 1, Control{Kind: ControlRefresh}),
			control(8, 0, Control{Kind: ControlNACK, Seqs: []uint32{2}}),
		}, check: func(t *testing.T, r *scenarioRun) {
			for _, v := range r.viewers {
				expect(t, v.m.Retransmits == 1 && v.m.NACKsReceived == 1 && v.outcomes[7].Type == codec.IFrame,
					"%s: %d retransmits for %d NACKs; frame 7 a %v", v.label, v.m.Retransmits, v.m.NACKsReceived, v.outcomes[7].Type)
			}
			expect(t, r.viewers[0].m.RetxBuffered == 0 && r.m.Refreshes == 1 && r.m.RefreshesCoalesced == 1,
				"detached viewer buffers %d packets; %+v", r.viewers[0].m.RetxBuffered, r.m)
		}},
	// A viewer whose transport fails stops alone.
	{name: "viewer error", test: "TestServerViewerErrorIsolation", frames: 6, scale: 0.02, opts: v1,
		viewers: "whole whole!", check: func(t *testing.T, r *scenarioRun) { allDecoded(t, r, 0) }},
	// A clean Close keeps the sent-records: the tail's NACK, after Close,
	// is answered once for [s, s, s]. At MTU 64 every frame is wider than
	// the retransmit budget, so the shard cache keeps the newest alone.
	{name: "tail NACK after close", test: "TestViewerTailNACKAfterClose", frames: 3, scale: 0.02, opts: intraOnly, mtu: 64,
		viewers: "whole", events: []event{{afterClose, 0, func(r *scenarioRun, v *scenarioViewer) {
			last, _ := ParsePacket(v.fresh[len(v.fresh)-1])
			s := last.Header.Seq
			control(0, 0, Control{Kind: ControlNACK, Seqs: []uint32{s, s, s}}).do(r, v)
		}}}, check: func(t *testing.T, r *scenarioRun) {
			v := r.viewers[0]
			expect(t, v.m.Retransmits == 1 && v.m.RetxMisses == 0 && len(v.v.shard.retx.frames) == 1,
				"%d retransmits, %d misses, %d cached frames; want 1, 0, 1", v.m.Retransmits, v.m.RetxMisses, len(v.v.shard.retx.frames))
		}},
}, lossSweep())

// lossSweep is the loss acceptance sweep: redandblack at scale 0.008, 0 /
// 1 / 5 / 10% independent drop with 3% reordering and 1% duplication, and a
// Gilbert–Elliott burst averaging ~4.4% in spells, with NACK recovery alone
// (floor 0.95 up to 5%) and with one parity packet per four data packets
// (floor 0.99). The 10% and burst rows log what recovery costs past the
// floor.
func lossSweep() []scenario {
	var rows []scenario
	for _, k := range []int{0, 4} {
		for _, drop := range []float64{0, 0.01, 0.05, 0.10, -1} {
			fec, prof, floor := fmt.Sprintf("FEC group %d", k), iid(drop), map[int]float64{0: 0.95, 4: 0.99}[k]
			if k == 0 {
				fec = "FEC off"
			}
			name := fmt.Sprintf("%s %.0f%%", fec, drop*100)
			if drop < 0 {
				name, prof = fec+" GE burst", linksim.FaultProfile{GEBadLoss: 0.6, ReorderRate: 0.03, DupRate: 0.01, Seed: 42}
			}
			if drop < 0 || drop > 0.05 {
				floor = 0
			}
			rows = append(rows, scenario{name: name, test: "TestLossyStreamRecovers5PercentLoss/" + name, video: "redandblack",
				frames: 60, scale: 0.008, opts: sweepV1, fec: k, viewers: "whole", faults: prof, check: lossFloor(floor)})
		}
	}
	return rows
}

// iid is independent drop, with 3% reordering and 1% duplication when it
// drops anything.
func iid(drop float64) linksim.FaultProfile {
	if drop == 0 {
		return linksim.FaultProfile{Seed: 42}
	}
	return linksim.FaultProfile{DropRate: drop, ReorderRate: 0.03, DupRate: 0.01, Seed: 42}
}

// dropRate steps a viewer's link to a drop rate.
func dropRate(rate float64) func(*scenarioRun, *scenarioViewer) {
	return func(_ *scenarioRun, v *scenarioViewer) { v.fl.SetDropRate(rate) }
}

func setLayers(n uint8) func(*scenarioRun, *scenarioViewer) {
	return func(_ *scenarioRun, v *scenarioViewer) { v.v.SetLayers(n) }
}

func sendLayers(n uint8) func(*scenarioRun, *scenarioViewer) {
	return func(_ *scenarioRun, v *scenarioViewer) { v.pipe.Receiver().SendLayers(n) }
}

// control routes a control message for viewer v through the Server.
func control(at, v int, c Control) event {
	return event{at, v, func(r *scenarioRun, sv *scenarioViewer) {
		c.StreamID = sv.v.StreamID()
		if err := r.sv.HandleControl(c); err != nil {
			r.t.Error(err)
		}
	}}
}

func sum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

// fates is one letter per frame: D, C or S for decoded, concealed or
// skipped, upper case for an I-frame.
func fates(outcomes []DecodedFrame) string {
	var b []byte
	for _, f := range outcomes {
		c := "DCS"[f.Status]
		if f.Type == codec.PFrame {
			c += 'a' - 'A'
		}
		b = append(b, c)
	}
	return string(b)
}

// flagSet is the sorted flag bytes of a viewer's fresh data packets.
func flagSet(v *scenarioViewer) []string {
	var out []string
	for f := range v.flags {
		out = append(out, flagHex(f))
	}
	slices.Sort(out)
	return out
}

func flagHex(f byte) string { return fmt.Sprintf("%02x", f) }

func points(v *scenarioViewer) (n int) {
	for _, f := range v.outcomes {
		if f.Status == FrameDecoded {
			n += f.Cloud.Len()
		}
	}
	return n
}

func expect(t *testing.T, ok bool, format string, args ...any) {
	t.Helper()
	if !ok {
		t.Errorf(format, args...)
	}
}

// allDecoded fails unless the viewers (default all) decoded every frame.
func allDecoded(t *testing.T, r *scenarioRun, viewers ...int) {
	t.Helper()
	for k, v := range r.viewers {
		for _, f := range v.outcomes {
			expect(t, f.Status == FrameDecoded || len(viewers) > 0 && !slices.Contains(viewers, k),
				"%s frame %d: %v (%v)", v.label, f.Index, f.Status, f.Err)
		}
	}
}

func decodedRatio(outcomes []DecodedFrame) float64 {
	n := 0
	for _, f := range outcomes {
		if f.Status == FrameDecoded {
			n++
		}
	}
	return float64(n) / float64(len(outcomes))
}

// resyncs holds a stream that lost frames from lost on: decoded before
// them, not after until an I-frame at or past after resyncs it, decoded from
// there on. It returns the frame that resynced the stream.
func resyncs(t *testing.T, outcomes []DecodedFrame, lost, after int) int {
	t.Helper()
	resync := after + slices.IndexFunc(outcomes[after:], func(f DecodedFrame) bool { return f.Status == FrameDecoded })
	if resync < after || outcomes[resync].Type != codec.IFrame {
		t.Fatalf("no I-frame resynced the stream (first decode from frame %d: %d)", after, resync)
	}
	for i, f := range outcomes {
		expect(t, (f.Status == FrameDecoded) == (i < lost || i >= resync), "frame %d: %v (%v)", i, f.Status, f.Err)
	}
	return resync
}

// lossFloor holds a one-viewer lossy row to a decoded-ratio floor, and to
// its faults having dropped something and its recovery (parity, or NACKs
// and retransmits) having answered.
func lossFloor(floor float64) func(*testing.T, *scenarioRun) {
	return func(t *testing.T, r *scenarioRun) {
		v := r.viewers[0]
		fs, rx := v.fl.Stats(), v.rx
		ratio := decodedRatio(v.outcomes)
		// recov is the mean recovery delay of the decoded frames that waited.
		recov, n := time.Duration(0), 0
		for _, f := range v.outcomes {
			if f.Status == FrameDecoded && f.Delay > 0 {
				recov, n = recov+f.Delay, n+1
			}
		}
		t.Logf("decoded %.3f, concealed %d, skipped %d; nacks %d, retx %d, parity repairs %d; recov %.1f ms; faults: %+v",
			ratio, rx.FramesConcealed, rx.FramesSkipped, rx.NACKsSent, rx.RetransmitsReceived, rx.FEC.ParityRepairs,
			recov.Seconds()*1000/float64(max(n, 1)), fs)
		expect(t, ratio >= floor, "decoded ratio %.3f below the %.2f floor", ratio, floor)
		if r.faults.DropRate > 0 || r.faults.GEBadLoss > 0 {
			expect(t, fs.Dropped+fs.GEDrops > 0 && (r.faults.GEBadLoss == 0 || fs.GEBadSpells > 0), "the faults dropped nothing: %+v", fs)
			expect(t, r.fec > 0 && rx.FEC.ParityRepairs > 0 || r.fec == 0 && rx.NACKsSent > 0 && v.m.Retransmits > 0,
				"losses occurred but recovery never answered: %+v", rx)
		}
	}
}

// answeredAfter maps each sequence number a viewer retransmitted to the
// header of the packet sent last before the first retransmit that was not
// one itself: the packet whose crossing made the receiver NACK it.
func answeredAfter(v *scenarioViewer) map[uint32]PacketHeader {
	after := map[uint32]PacketHeader{}
	var last PacketHeader
	for _, h := range v.sends {
		if h.Flags&FlagRetransmit == 0 {
			last = h
		} else if _, ok := after[h.Seq]; !ok {
			after[h.Seq] = last
		}
	}
	return after
}

// checkShedTrace holds the slow viewer to its shed trace.
func checkShedTrace(t *testing.T, r *scenarioRun) {
	v := r.viewers[0]
	for i, f := range v.outcomes {
		want := FrameSkipped
		if i == 0 || i == 6 || i == 8 {
			want = FrameDecoded
		}
		expect(t, f.Status == want && (want == FrameDecoded || errors.Is(f.Err, ErrSenderDropped)), "frame %d: %v (%v)", i, f.Status, f.Err)
	}
	m := v.m
	expect(t, m.FramesSent == 3 && m.FramesDropped == 6 && m.Resyncs == 2 && m.FramesEnqueued == 9 && v.rx.NACKsSent == 0,
		"%d sent, %d dropped, %d resyncs, %d enqueued, %d NACKs; want 3, 6, 2, 9, 0", m.FramesSent, m.FramesDropped, m.Resyncs, m.FramesEnqueued, v.rx.NACKsSent)
	expect(t, r.m.Pipeline.Dropped == 0, "the shared pipeline dropped %d frames", r.m.Pipeline.Dropped)
}

// checkLatch holds a layered row's one viewer to its subscription latch:
// exactly the frames layered were sent truncated, one downswitch, one
// upswitch, and every frame decodes.
func checkLatch(layered ...uint32) func(*testing.T, *scenarioRun) {
	return func(t *testing.T, r *scenarioRun) {
		allDecoded(t, r)
		v := r.viewers[0]
		got := slices.Sorted(maps.Keys(v.layered))
		expect(t, slices.Equal(got, layered) && v.m.SubLayers == 0 && v.m.LayerDownswitches == 1 && v.m.LayerUpswitches == 1,
			"frames %v sent layered, want %v; %+v", got, layered, v.m)
	}
}

// expectDegraded holds an adaptive row's controller to having degraded
// its knobs.
func expectDegraded(t *testing.T, r *scenarioRun) {
	a := r.snaps[len(r.snaps)-1].Counters
	expect(t, a.CongestedEnters > 0 && a.QualityDrops > 0, "the controller never degraded: %+v", a)
}

// checkParityGroups holds every one of a viewer's frames to the parity
// group size k: exactly one fresh parity packet per group of
// parityGroups(n, k, type).
func checkParityGroups(t *testing.T, v *scenarioViewer, k, frames int) {
	type frame struct {
		n, parity int
		ftype     codec.FrameType
	}
	got := map[uint32]*frame{}
	for _, h := range v.sends {
		if h.Flags&FlagRetransmit != 0 {
			continue
		}
		f := got[h.FrameIndex]
		if f == nil {
			f = &frame{}
			got[h.FrameIndex] = f
		}
		if h.Flags&FlagParity != 0 {
			f.parity++
		} else {
			f.n, f.ftype = int(h.FragCount), h.FrameType
		}
	}
	expect(t, len(got) == frames, "%d frames sent, want %d", len(got), frames)
	for i, f := range got {
		want := len(parityGroups(f.n, k, f.ftype))
		expect(t, f.parity == want, "frame %d (%v, %d fragments): %d parity packets, want %d", i, f.ftype, f.n, f.parity, want)
	}
}

// stepResponse holds an adaptive row to its step response: the GOP never
// below its base before the step and shrunk within 24 frames of it; quality
// degraded by the end of a step that never clears, or every knob back at
// baseline within 30 frames of the link clearing, a probe having brought
// it; and the trailing frames decoding at least 0.70.
func stepResponse(stepAt, clearAt, tail int) func(*testing.T, *scenarioRun) {
	return func(t *testing.T, r *scenarioRun) {
		n := len(r.snaps)
		for lo := 0; lo < n; lo += 4 {
			s := r.snaps[min(lo+4, n)-1]
			t.Logf("frames %2d-%2d: gop %2d probing %-5t qscale %d boost %4.1fx loss ewma %.3f; fates %s",
				lo, min(lo+4, n)-1, s.Knobs.GOP, s.Probing, s.Knobs.QScale, s.Knobs.Threshold/r.opts.Inter.Threshold,
				s.LossEWMA, fates(r.viewers[0].outcomes[lo:min(lo+4, n)]))
		}
		gop := func(s codec.ControllerSnapshot) int { return s.Knobs.GOP }
		expect(t, !slices.ContainsFunc(r.snaps[:stepAt], func(s codec.ControllerSnapshot) bool { return gop(s) < 3 }),
			"the GOP fell below its base on a clean link")
		shrunk := slices.ContainsFunc(r.snaps[stepAt:stepAt+24], func(s codec.ControllerSnapshot) bool { return gop(s) < gop(r.snaps[stepAt-1]) })
		a := r.snaps[n-1].Counters
		expect(t, shrunk && a.GOPShrinks > 0 && a.QualityDrops > 0 && a.CongestedEnters > 0 && r.viewers[0].m.FeedbackReports > 0,
			"no step response within 24 frames: %+v", a)
		if back := slices.Index(r.atBase[min(clearAt, n):], true); clearAt > 0 {
			expect(t, back >= 0 && back <= 30 && a.Probes > 0, "every knob back at baseline %d frames after the link cleared (-1: never), %d probes", back, a.Probes)
		} else {
			expect(t, r.snaps[n-1].Knobs.QScale > 1, "the quality knob never degraded under 15%% loss")
		}
		ratio := decodedRatio(r.viewers[0].outcomes[n-tail:])
		expect(t, ratio >= 0.70, "the last %d frames decoded %.2f, below 0.70", tail, ratio)
	}
}
