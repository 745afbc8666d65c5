package stream

// The relay tree's branches: S relay shards, each owning a partition of
// viewers. A shard's worker goroutine drains its frame channel and fans
// each frame out to its own viewers, so the encode pipeline's cost per
// frame is one channel send per shard — O(1) in the viewer count — while
// the O(N) fan-out work spreads across the shards. Everything a viewer
// does that used to touch the server's global lock now touches only its
// shard:
//
//   - Attach/Detach mutate the shard's partition (sv.mu is taken only
//     for the closed check);
//   - NACKs are answered from the shard's retransmit cache — the frame
//     payloads are shared by every viewer in the partition, so the cache
//     stores each frame once, by reference, and rebuilds the NACKed
//     fragment in the viewer's own sequence space on demand;
//   - I-frame refresh requests arm a shard-local flag first, so a
//     refresh storm across a partition coalesces inside the shard and
//     forwards at most one request to the server per GOP restart;
//   - feedback reports fold into a shard-local loss table, and the
//     server-level reduction reads S shard tables instead of N viewers.
//
// Lock order (deadlock audit): sv.mu > shard.mu > viewer.mu, each
// optional but never taken in reverse. The reduction over shards takes
// one shard.mu at a time and never holds two. Viewer.mu is never held
// while calling into a shard or the server.

import (
	"sync"

	"repro/internal/codec"
	"repro/internal/metrics"
)

// shard is one relay worker plus the viewer partition it owns.
type shard struct {
	sv    *Server
	idx   int
	stats *metrics.ShardCounters
	// in is the shard's ring: published frames it has yet to relay, at
	// most ringFrames of them. Closed by Server.Close once the shared
	// pipeline has drained.
	in   chan liveFrame
	done chan struct{} // worker exited

	mu      sync.Mutex
	viewers []*Viewer
	byID    map[uint32]*Viewer
	// losses is the shard-local feedback aggregate: the latest reported
	// loss rate of every viewer in the partition that has reported.
	losses map[uint32]float64
	// refreshArmed coalesces refresh requests shard-locally: the first
	// forwards to the server, later ones ride along until the next
	// I-frame clears the arm.
	refreshArmed bool
	// retx is the shard retransmit cache: recent published frames, shared
	// by every viewer in the partition, budgeted in packets at the server
	// MTU. Its own lock nests inside mu.
	retx *retxCache
}

func newShard(sv *Server, idx int) *shard {
	stats := metrics.NewShardCounters(idx)
	return &shard{
		sv:     sv,
		idx:    idx,
		stats:  stats,
		in:     make(chan liveFrame, ringFrames),
		done:   make(chan struct{}),
		byID:   make(map[uint32]*Viewer),
		losses: make(map[uint32]float64),
		retx:   newRetxCache(retxBudget, sv.cfg.MTU, stats.CacheResize),
	}
}

// run is the shard worker: drain the channel, relay each frame to the
// partition, then mark the frame's relay complete. Frames are relayed in
// publish order, so every viewer observes the stream in encode order. A
// canceled server's worker abandons the frames still queued.
func (sh *shard) run() {
	defer close(sh.done)
	stop := sh.sv.stop.Done()
	for {
		select {
		case <-stop:
			return
		case lf, ok := <-sh.in:
			if !ok || sh.sv.stop.Err() != nil {
				return
			}
			sh.relay(lf)
			if lf.f.pending.Add(-1) == 0 {
				sh.sv.frameRelayed(lf.f)
			}
		}
	}
}

// relay offers one published frame to every viewer in the partition and
// folds it into the shard retransmit cache. Holds sh.mu for the iteration,
// so attaches and detaches interleave between frames, never mid-frame —
// the partition a frame is delivered to is exactly the partition at relay
// time (the detach-in-flight invariant).
func (sh *shard) relay(lf liveFrame) {
	sh.mu.Lock()
	if lf.f.ftype == codec.IFrame {
		sh.refreshArmed = false // the pending restart (if any) just landed
	}
	sh.retx.add(lf.f)
	accepted := int64(0)
	for _, v := range sh.viewers {
		if v.enqueue(lf) {
			accepted++
		}
	}
	sh.mu.Unlock()
	sh.stats.FrameRelayed(accepted)
}

// noteRetx counts one NACKed packet a viewer's sender rebuilt from the
// shard's retransmit cache (hit) or could no longer answer.
func (sh *shard) noteRetx(hit bool) {
	if hit {
		sh.stats.RetxHit()
	} else {
		sh.stats.RetxMiss()
	}
}

// attach inserts a viewer into the partition. Returns false when the id
// is already taken (only possible once the id counter wraps).
func (sh *shard) attach(v *Viewer) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.byID[v.id] != nil {
		return false
	}
	// Late joiners start from the cached keyframe: enqueue it while
	// holding sh.mu, so the cached frame is strictly ordered before any
	// live frame the worker relays to this viewer, and pin the keyframe
	// in the shard retransmit cache so its packets are NACKable.
	if c := v.joinCache; c != nil {
		sh.retx.add(c)
		v.enqueue(liveFrame{f: c})
		v.joinCache = nil
	}
	sh.viewers = append(sh.viewers, v)
	sh.byID[v.id] = v
	sh.stats.ViewerAttached()
	return true
}

// detach removes a viewer from the partition (no-op when it is not
// attached). The worker never sees it again: the frame being relayed
// when detach blocked on sh.mu was fully delivered or not at all.
func (sh *shard) detach(v *Viewer) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.byID[v.id] != v {
		return false
	}
	delete(sh.byID, v.id)
	delete(sh.losses, v.id)
	for i, w := range sh.viewers {
		if w == v {
			sh.viewers = append(sh.viewers[:i], sh.viewers[i+1:]...)
			break
		}
	}
	sh.stats.ViewerDetached()
	return true
}

// lookup routes a control message's stream id to its viewer.
func (sh *shard) lookup(id uint32) *Viewer {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.byID[id]
}

// snapshotViewers copies the partition for metrics and shutdown.
func (sh *shard) snapshotViewers() []*Viewer {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return append([]*Viewer(nil), sh.viewers...)
}

// requestRefresh coalesces one viewer's I-frame refresh request at the
// shard before (at most once per restart) forwarding it to the server.
func (sh *shard) requestRefresh() {
	sh.mu.Lock()
	armed := sh.refreshArmed
	sh.refreshArmed = true
	sh.mu.Unlock()
	if armed {
		sh.stats.RefreshCoalesced()
		sh.sv.noteCoalescedRefresh()
		return
	}
	sh.sv.requestIFrame()
}

// noteLoss folds one viewer's accepted feedback report into the shard's
// loss table (the first level of the feedback reduction tree).
func (sh *shard) noteLoss(id uint32, loss float64) {
	sh.mu.Lock()
	if _, live := sh.byID[id]; live {
		sh.losses[id] = loss
	}
	sh.mu.Unlock()
	sh.stats.FeedbackReport()
}

// appendLosses appends the shard's loss table values to dst — the
// server-level reduction reads S of these instead of locking N viewers.
func (sh *shard) appendLosses(dst []float64) []float64 {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, l := range sh.losses {
		dst = append(dst, l)
	}
	return dst
}
