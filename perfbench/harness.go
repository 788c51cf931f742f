package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// A workload is one closed-loop traffic shape. Its set-up builds the
// programs, starts the sessions, runs them to their first stop and warms
// up; it returns the clients the measured phase drives.
type workload struct {
	name string
	// why records what the workload exists to measure and which source
	// of measurement noise its design avoids.
	why   string
	setup func(seed int64) (instance, error)
	// setupReps is how many set-ups a run times; setup_s is their
	// median, so short set-ups repeat more.
	setupReps int
	// blockOps is the block length, in one client's ops, that throughput
	// and median latency take their medians over: whole passes over the
	// workload's op pattern, a fifth of a second to a second long.
	blockOps int64
}

// An instance is one set-up workload: its clients, its probe target for
// the traced run, and the resources close releases.
type instance interface {
	clients() []client
	// probe returns the build, stops and inputs the traced run replays
	// through each layer's entry point.
	probe() (*probeTarget, error)
	close()
}

// A client replays one seeded op sequence. op issues the next op, waits
// for its answer and checks it; a returned error is a failed op. The
// tracer is nil in untraced runs.
type client interface {
	op(tr *tracer) error
}

// phaseResult is the outcome of one measured phase. Throughput and the
// median latency are medians over blocks of a workload's blockOps
// consecutive ops of one client, so a burst of outside load moves them
// little while every block still holds whole passes over the op pattern.
type phaseResult struct {
	clients   int
	all       hist      // every op's latency
	blockTput []float64 // per block: ops per second of its client
	blockP50  []float64 // per block: median latency in ms
	attempted int64
	failed    int64
	firstErr  error
	liveHeap  []float64 // MiB samples of /gc/heap/live:bytes
}

// clientPhase accumulates one client's ops.
type clientPhase struct {
	phaseResult
	block      hist
	blockStart time.Time
}

// endBlock closes the client's current block.
func (c *clientPhase) endBlock(end time.Time) {
	if c.block.n == 0 {
		return
	}
	c.blockTput = append(c.blockTput, float64(c.block.n)/end.Sub(c.blockStart).Seconds())
	p50, _ := c.block.quantile(0.50)
	c.blockP50 = append(c.blockP50, p50/1e6)
	c.block = hist{}
	c.blockStart = end
}

// measure drives every client closed-loop until the deadline: each client
// sends its next op only after the previous answer arrived. Op latency
// runs from issuing the op to its checked answer.
func measure(cl []client, blockOps int64, d time.Duration, tr *tracer) *phaseResult {
	res := &phaseResult{clients: len(cl)}
	own := make([]clientPhase, len(cl))
	stopSampler := sampleLiveHeap(&res.liveHeap)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i, c := range cl {
		wg.Add(1)
		go func(c client, r *clientPhase) {
			defer wg.Done()
			r.blockStart = start
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					break
				}
				err := c.op(tr)
				end := time.Now()
				r.all.add(int64(end.Sub(t0)))
				r.block.add(int64(end.Sub(t0)))
				if r.block.n == blockOps {
					r.endBlock(end)
				}
				r.attempted++
				if err != nil {
					r.failed++
					if r.firstErr == nil {
						r.firstErr = err
					}
				}
			}
			// A partial block counts only when the phase was too short
			// for a whole one.
			if len(r.blockTput) == 0 {
				r.endBlock(time.Now())
			}
		}(c, &own[i])
	}
	wg.Wait()
	stopSampler()
	for i := range own {
		r := &own[i]
		res.all.merge(&r.all)
		res.blockTput = append(res.blockTput, r.blockTput...)
		res.blockP50 = append(res.blockP50, r.blockP50...)
		res.attempted += r.attempted
		res.failed += r.failed
		if res.firstErr == nil {
			res.firstErr = r.firstErr
		}
	}
	return res
}

// sampleLiveHeap samples the live heap after the most recent GC every
// 20ms until the returned stop function is called; stop waits for the
// sampler to exit.
func sampleLiveHeap(out *[]float64) (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			*out = append(*out, liveHeapMiB())
			select {
			case <-quit:
				return
			case <-t.C:
			}
		}
	}()
	return func() { close(quit); <-done }
}

func liveHeapMiB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// collect releases garbage from earlier set-ups so every set-up starts
// from a collected heap with nothing of another instance alive.
func collect() {
	runtime.GC()
	runtime.GC()
}

// setupRepeated runs the workload's set-up reps times, each from a
// collected heap, closing all but the last instance. It returns the last
// instance and the median set-up time in seconds.
func setupRepeated(w *workload, seed int64, reps int) (instance, float64, error) {
	var times []float64
	var inst instance
	for i := 0; i < reps; i++ {
		if inst != nil {
			inst.close()
			inst = nil
		}
		collect()
		t0 := time.Now()
		in, err := w.setup(seed)
		if err != nil {
			return nil, 0, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		times = append(times, time.Since(t0).Seconds())
		inst = in
	}
	return inst, median(times), nil
}

// endToEnd turns a measured phase into the five end-to-end metrics. The
// p99 is over the whole phase, which leaves enough samples above it.
func endToEnd(p *phaseResult, setupS float64) map[string]metric {
	p99, _ := p.all.quantile(0.99)
	return map[string]metric{
		"setup_s":          {setupS, "s"},
		"ops_per_s":        {float64(p.clients) * median(p.blockTput), "op/s"},
		"op_p50_ms":        {median(p.blockP50), "ms"},
		"op_p99_ms":        {p99 / 1e6, "ms"},
		"live_heap_p50_mb": {median(p.liveHeap), "MiB"},
	}
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
