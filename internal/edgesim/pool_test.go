package edgesim

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Ranges must cover [0, items) exactly once, with the documented
// deterministic decomposition (ceil(items/workers) chunks, lo a multiple of
// the chunk length), for every worker count including the clamped ones.
func TestPoolRangesCoverExactlyOnce(t *testing.T) {
	p := DefaultPool()
	for _, items := range []int{0, 1, 2, 7, 64, 1000, 4097} {
		for _, workers := range []int{1, 2, 3, 8, 1 << 20} {
			var mu sync.Mutex
			seen := make([]int, items)
			chunks := 0
			p.Ranges(workers, items, func(lo, hi int) {
				if lo < 0 || hi > items || lo >= hi {
					t.Errorf("items=%d workers=%d: bad range [%d,%d)", items, workers, lo, hi)
				}
				mu.Lock()
				chunks++
				for i := lo; i < hi; i++ {
					seen[i]++
				}
				mu.Unlock()
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("items=%d workers=%d: index %d covered %d times", items, workers, i, c)
				}
			}
			w := workers
			if w > p.Workers() {
				w = p.Workers()
			}
			if w > items {
				w = items
			}
			if items > 0 && chunks > w {
				t.Errorf("items=%d workers=%d: %d chunks for %d effective workers", items, workers, chunks, w)
			}
		}
	}
}

// CPUParallel launches asking for more threads than the host has must be
// surfaced in the kernel ledger: ModelThreads keeps the modelled count,
// RealWorkers the clamped one, and Clamped() reports the mismatch.
func TestKernelRecordSurfacesClamp(t *testing.T) {
	d := NewXavier(Mode15W)
	host := runtime.GOMAXPROCS(0)
	want := host + 4 // guaranteed above the host budget
	d.CPUParallel("ClampProbe", want, 1000, Cost{OpsPerItem: 1}, func(lo, hi int) {})
	for _, k := range d.Kernels() {
		if k.Name != "ClampProbe" {
			continue
		}
		if k.ModelThreads != want {
			t.Errorf("ModelThreads = %d, want %d", k.ModelThreads, want)
		}
		if k.RealWorkers > host {
			t.Errorf("RealWorkers = %d exceeds host budget %d", k.RealWorkers, host)
		}
		if !k.Clamped() {
			t.Errorf("Clamped() = false for a %d-thread launch on %d cores", want, host)
		}
		return
	}
	t.Fatal("ClampProbe kernel not in ledger")
}

// The shared pool must stay correct under concurrent submission from many
// devices (the multi-session serving shape); run with -race in CI.
func TestPoolConcurrentStress(t *testing.T) {
	const sessions = 8
	var wg sync.WaitGroup
	var sum atomic.Int64
	wantPer := int64(0)
	n := 10000
	for i := 0; i < n; i++ {
		wantPer += int64(i)
	}
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := NewXavier(Mode15W)
			for iter := 0; iter < 50; iter++ {
				var local atomic.Int64
				d.ParallelFor(n, func(lo, hi int) {
					var acc int64
					for i := lo; i < hi; i++ {
						acc += int64(i)
					}
					local.Add(acc)
				})
				if local.Load() != wantPer {
					t.Errorf("ParallelFor sum = %d, want %d", local.Load(), wantPer)
					return
				}
				sum.Add(local.Load())
			}
		}()
	}
	wg.Wait()
	if got, want := sum.Load(), int64(sessions)*50*wantPer; got != want {
		t.Fatalf("total = %d, want %d", got, want)
	}
}

// BenchmarkPoolColdLaunch measures how long a launch takes to reach a second
// core: the time from Pool.Ranges to a parked worker starting chunk 1, while
// chunk 0 keeps the calling core busy until then, as a real chunk does (a
// caller that blocked at once would run chunk 1 itself). The workers and
// their threads go idle before every launch, as they do between the kernels
// of a frame; launching back to back reads the same. A fan-out whose chunks
// run shorter than this runs them one after another, so size chunks well
// above it (DESIGN.md §8). Reported as start-us per launch.
func BenchmarkPoolColdLaunch(b *testing.B) {
	p := DefaultPool()
	if p.Workers() < 2 {
		b.Skip("a launch reaches a second core only with two pool workers")
	}
	var total time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		time.Sleep(2 * time.Millisecond)
		b.StartTimer()
		var started atomic.Int64
		t0 := time.Now()
		p.Ranges(2, 2, func(lo, hi int) {
			if lo == 1 {
				started.Store(int64(time.Since(t0)))
				return
			}
			for started.Load() == 0 && time.Since(t0) < 100*time.Millisecond {
			}
		})
		total += time.Duration(started.Load())
	}
	b.ReportMetric(total.Seconds()*1e6/float64(b.N), "start-us")
}
