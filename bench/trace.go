package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer. Spans of one frame
// share Frame; Parent is the span that caused this one (-1 for a root).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Frame  int    `json:"frame"`
	// Track names the goroutine-like lane the span ran on ("" = its
	// parent's); the trace viewer draws one row per track.
	Track string `json:"track,omitempty"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer collects spans in memory. A nil *tracer records nothing, so the
// untraced windows pay one nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its id (-1 when tracing is off).
func (t *tracer) begin(name string, parent int32, frame int, track string) int32 {
	if t == nil {
		return -1
	}
	return t.beginAt(name, parent, frame, track, t.now())
}

// beginAt opens a span whose start was observed earlier (a frame's due time).
func (t *tracer) beginAt(name string, parent int32, frame int, track string, start int64) int32 {
	if t == nil {
		return -1
	}
	return t.push(span{Parent: parent, Name: name, Frame: frame, Track: track, Start: start, End: -1})
}

func (t *tracer) push(s span) int32 {
	t.mu.Lock()
	s.ID = int32(len(t.spans))
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// endAt closes a span at a time observed earlier.
func (t *tracer) endAt(id int32, at int64) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].End = at
	t.mu.Unlock()
}

// extendTo moves a span's end forward to at (a frame root ends when the
// last of its viewers has decoded it).
func (t *tracer) extendTo(id int32, at int64) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	if at > t.spans[id].End {
		t.spans[id].End = at
	}
	t.mu.Unlock()
}

// add records a span whose both ends were observed by the caller (waits
// between two callbacks, which no single call brackets).
func (t *tracer) add(name string, parent int32, frame int, track string, start, end int64) {
	if t == nil || end < start {
		return
	}
	t.push(span{Parent: parent, Name: name, Frame: frame, Track: track, Start: start, End: end})
}

// in times f as a child span.
func (t *tracer) in(name string, parent int32, frame int, f func()) {
	id := t.begin(name, parent, frame, "")
	f()
	t.end(id)
}

// finished returns the closed spans; a span left open by an aborted run is
// dropped rather than exported with a negative length.
func (t *tracer) finished() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover (children may overlap each other
// when they ran on different goroutines, so the cover is a union).
func selfTimes(spans []span) map[int32]int64 {
	kids := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - cover(s, kids[s.ID])
	}
	return self
}

// cover is the length of the union of the children's intervals, clipped to
// the parent's.
func cover(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	end = -1 << 62
	for _, x := range iv {
		if x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// byName totals duration, self time and count per span name.
type nameTotal struct {
	dur, self int64
	n         int
}

func totalsByName(spans []span) map[string]nameTotal {
	self := selfTimes(spans)
	out := make(map[string]nameTotal)
	for _, s := range spans {
		t := out[s.Name]
		t.dur += s.dur()
		t.self += self[s.ID]
		t.n++
		out[s.Name] = t
	}
	return out
}

// rootCover is the share of the named roots' time that their descendants'
// self times account for (1 = the layers explain the whole frame).
func rootCover(spans []span, root string) float64 {
	self := selfTimes(spans)
	var dur, own int64
	for _, s := range spans {
		if s.Name == root && s.Parent < 0 {
			dur += s.dur()
			own += self[s.ID]
		}
	}
	if dur == 0 {
		return 0
	}
	return float64(dur-own) / float64(dur)
}

// writeJSONL writes one span per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// chromeEvent is one "complete" event of the Chrome trace-event format
// (chrome://tracing, Perfetto): timestamps and durations in microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeEvents lays the spans out on viewer rows. A span with a Track runs
// on that row; one without inherits its parent's. Roots that overlap in
// time (pipelined frames) are spread over numbered lanes of their track,
// because complete events on one row must nest.
func chromeEvents(spans []span) []chromeEvent {
	byID := make(map[int32]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	ordered := append([]span(nil), spans...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Start < ordered[j].Start })

	rowOf := make(map[int32]string, len(spans))
	laneEnd := make(map[string][]int64) // per track: end time of each lane's last root
	for _, s := range ordered {
		row, isRoot := "", s.Parent < 0
		switch {
		case isRoot:
			track := s.Track
			if track == "" {
				track = s.Name
			}
			lanes := laneEnd[track]
			lane := 0
			for lane < len(lanes) && lanes[lane] > s.Start {
				lane++
			}
			if lane == len(lanes) {
				lanes = append(lanes, 0)
			}
			lanes[lane] = s.End
			laneEnd[track] = lanes
			row = fmt.Sprintf("%s/%d", track, lane)
		case s.Track != "":
			row = s.Track
		default:
			row = rowOf[s.Parent]
		}
		rowOf[s.ID] = row
	}

	rows := make([]string, 0)
	seen := make(map[string]int)
	for _, s := range ordered {
		if _, ok := seen[rowOf[s.ID]]; !ok {
			seen[rowOf[s.ID]] = 0
			rows = append(rows, rowOf[s.ID])
		}
	}
	sort.Strings(rows)
	evs := make([]chromeEvent, 0, len(spans)+len(rows))
	for i, r := range rows {
		seen[r] = i + 1
		evs = append(evs, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: i + 1, Args: map[string]any{"name": r}})
	}
	for _, s := range ordered {
		evs = append(evs, chromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: seen[rowOf[s.ID]],
			Ts: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
			Args: map[string]any{"frame": s.Frame, "id": s.ID, "parent": s.Parent},
		})
	}
	return evs
}

func writeChrome(path string, spans []span) error {
	data, err := json.Marshal(map[string]any{"traceEvents": chromeEvents(spans), "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
