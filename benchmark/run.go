package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"
)

// env is what a workload's set-up is given: sizes, the seed its inputs are
// generated from, the fixed operation count, and a directory inside the
// checkout for anything it writes.
type env struct {
	sz      sizes
	seed    int64
	seconds float64
	segOps  int // operations per segment
	callers int
	dir     string // scratch directory of this process, removed at exit
	builds  int    // set-ups built so far; gives each its own directory

	// Generated inputs, made once per process and shared by set-up repeats so
	// that setup_s times the program and not the generator.
	appStream  *appStream
	provEvents *provStream
}

func (e *env) totalOps() int { return e.segOps * segments }

// freshDir returns a new empty directory for one set-up's files.
func (e *env) freshDir() (string, error) {
	e.builds++
	d := filepath.Join(e.dir, fmt.Sprintf("build%d", e.builds))
	return d, os.MkdirAll(d, 0o755)
}

// instance is one built workload: the program under test, seeded, with the
// operation stream generated.
type instance interface {
	// op runs operation i on behalf of caller c and checks its result.
	op(c, i int) error
	// drain runs at the end of every segment, inside its wall time.
	drain() error
	// check verifies the workload's end state after ops [0, done) ran.
	check(done int) error
	// topSpan names the span the traced run wraps around op.
	topSpan() spanName
	// mark is called just before the traced segment and unmark just after
	// it, so the instance can read its counters over exactly that segment
	// and hook its own spans into t for no longer than that.
	mark(t *tracer)
	unmark()
	// layers replays the traced segment's ops [lo, hi) into each layer's
	// public API and reports the per-layer metrics.
	layers(t *tracer, lo, hi int) (*layerReport, error)
	close() error
}

// segResult is one segment's measurement.
type segResult struct {
	attempted, failed int
	wall              time.Duration
	lat               []int64 // ns per successful operation, sorted
	firstErr          error
}

func (s *segResult) ok() int { return s.attempted - s.failed }

func (s *segResult) opsPerSec() float64 { return float64(s.ok()) / s.wall.Seconds() }

func (s *segResult) meanUs() float64 {
	var sum int64
	for _, d := range s.lat {
		sum += d
	}
	if len(s.lat) == 0 {
		return 0
	}
	return float64(sum) / float64(len(s.lat)) / 1e3
}

// runSegment runs ops [lo, hi) closed-loop: caller c takes lo+c, lo+c+callers
// and so on, each waiting for its reply before sending the next. run is
// inst.op or a traced wrapper around it.
func runSegment(inst instance, callers, lo, hi int, run func(c, i int) error) segResult {
	lats := make([][]int64, callers)
	fails := make([]int, callers)
	errs := make([]error, callers)
	loop := func(c int) {
		lat := make([]int64, 0, (hi-lo)/callers+1)
		for i := lo + c; i < hi; i += callers {
			t0 := time.Now()
			err := run(c, i)
			d := time.Since(t0)
			if err != nil {
				fails[c]++
				if errs[c] == nil {
					errs[c] = fmt.Errorf("op %d: %w", i, err)
				}
				continue
			}
			lat = append(lat, int64(d))
		}
		lats[c] = lat
	}
	// Every segment starts just after a collection, so where GC cycles fall
	// inside a segment does not depend on what ran before it.
	runtime.GC()
	start := time.Now()
	if callers == 1 {
		loop(0)
	} else {
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				loop(c)
			}(c)
		}
		wg.Wait()
	}
	res := segResult{attempted: hi - lo}
	if err := inst.drain(); err != nil {
		// The segment's provenance is not queryable: none of it counts.
		res.failed = res.attempted
		res.firstErr = fmt.Errorf("drain: %w", err)
		res.wall = time.Since(start)
		return res
	}
	res.wall = time.Since(start)
	for c := 0; c < callers; c++ {
		res.failed += fails[c]
		res.lat = append(res.lat, lats[c]...)
		if res.firstErr == nil {
			res.firstErr = errs[c]
		}
	}
	slices.Sort(res.lat)
	return res
}

// buildTimed builds the workload setupRepeats times, keeping the last, and
// returns every build's wall time.
func buildTimed(w *workloadSpec, e *env, repeats int) (instance, []float64, error) {
	var inst instance
	var times []float64
	for r := 0; r < repeats; r++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, nil, fmt.Errorf("closing set-up %d: %w", r, err)
			}
			inst = nil
			// Earlier builds must not be the next one's garbage to collect.
			runtime.GC()
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		in, err := w.build(e)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", r+1, err)
		}
		times = append(times, time.Since(t0).Seconds())
		inst = in
	}
	// The generated provenance is loaded; holding it any longer would only
	// give the collector more to mark while queries are timed.
	e.provEvents = nil
	return inst, times, nil
}

// add counts operations into the result and keeps the first error seen.
func (r *result) add(attempted, failed int, firstErr error) {
	r.Attempted += attempted
	r.Failed += failed
	if firstErr != nil && r.FirstError == "" {
		r.FirstError = firstErr.Error()
	}
}

// conclude runs the workload's end-state check after ops [0, done) and
// closes the instance.
func (r *result) conclude(inst instance, done int) error {
	r.Correct = r.Failed == 0
	if err := inst.check(done); err != nil {
		r.Correct = false
		r.add(0, 0, fmt.Errorf("check: %w", err))
	}
	if err := inst.close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	return nil
}

// runUntraced is the end-to-end measurement: set-up, one warm-up segment,
// five timed segments, then the workload's correctness check.
func runUntraced(w *workloadSpec, e *env) (*result, error) {
	res := newResult(w, e, false)
	inst, setups, err := buildTimed(w, e, setupRepeats)
	if err != nil {
		return nil, err
	}
	defer func() {
		if inst != nil {
			inst.close()
		}
	}()
	var gc0 debug.GCStats
	debug.ReadGCStats(&gc0)

	n := e.segOps
	var timed []segResult
	for s := 0; s < segments; s++ {
		seg := runSegment(inst, w.callers, s*n, (s+1)*n, inst.op)
		res.add(seg.attempted, seg.failed, seg.firstErr)
		if s < warmSegments {
			res.diag("warmup_s", seg.wall.Seconds(), "s")
			continue
		}
		timed = append(timed, seg)
	}
	var gc1 debug.GCStats
	debug.ReadGCStats(&gc1)

	err = res.conclude(inst, segments*n)
	inst = nil
	if err != nil {
		return nil, err
	}

	res.metric("setup_s", "s", setups)
	var ops, p50, p99, mean []float64
	for i := range timed {
		s := &timed[i]
		ops = append(ops, s.opsPerSec())
		p50 = append(p50, percentileUs(s.lat, 0.50))
		p99 = append(p99, percentileUs(s.lat, 0.99))
		mean = append(mean, s.meanUs())
	}
	res.metric("ops_s", "1/s", ops)
	res.metric("p50_us", "us", p50)
	res.metric("p99_us", "us", p99)
	res.Diagnostics["mean_us"] = summarize("us", mean)
	res.diag("samples_per_segment", float64(len(timed[0].lat)), "count")
	res.diag("peak_rss_mb", peakRSSMB(), "MB")
	res.diag("gc_pause_total_ms", float64(gc1.PauseTotal-gc0.PauseTotal)/1e6, "ms")
	res.diag("gc_cycles", float64(gc1.NumGC-gc0.NumGC), "count")
	return res, nil
}

// runTraced is the per-layer measurement. After the warm-up it runs an
// untraced segment, a segment with a span around every operation, and
// another untraced segment; the two untraced neighbours are the baseline, so
// a workload that drifts as its tables grow does not show up as tracing cost.
// It then replays the traced segment's operations into each layer.
func runTraced(w *workloadSpec, e *env, traceFile string) (*result, error) {
	res := newResult(w, e, true)
	inst, _, err := buildTimed(w, e, 1)
	if err != nil {
		return nil, err
	}
	defer func() {
		if inst != nil {
			inst.close()
		}
	}()
	n := e.segOps
	t := newTracer(w.callers)
	name := inst.topSpan()
	tracedSeg := warmSegments + 1
	var base []segResult
	var top segResult
	for s := 0; s <= tracedSeg+1; s++ {
		var seg segResult
		if s == tracedSeg {
			inst.mark(t)
			seg = runSegment(inst, w.callers, s*n, (s+1)*n, func(c, i int) error {
				id := t.begin(c, name, noParent, i)
				err := inst.op(c, i)
				t.end(c, id)
				return err
			})
			inst.unmark()
			top = seg
		} else {
			seg = runSegment(inst, w.callers, s*n, (s+1)*n, inst.op)
			if s >= warmSegments {
				base = append(base, seg)
			}
		}
		res.add(seg.attempted, seg.failed, seg.firstErr)
	}
	done := (tracedSeg + 2) * n

	rep, err := inst.layers(t, tracedSeg*n, (tracedSeg+1)*n)
	if err != nil {
		return nil, fmt.Errorf("layers: %w", err)
	}
	res.add(rep.attempted, rep.failed, nil)
	err = res.conclude(inst, done)
	inst = nil
	if err != nil {
		return nil, err
	}

	baseMean := (base[0].meanUs() + base[1].meanUs()) / 2
	baseOps := (base[0].opsPerSec() + base[1].opsPerSec()) / 2
	rep.finish(t, baseMean, baseOps, top.opsPerSec())
	for _, d := range perLayer {
		v := rep.values[d.name]
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit, Min: v, Max: v, N: 1}
	}
	res.Budget = rep.budget
	for name, v := range rep.counts {
		res.diag(name, v, "count")
	}
	res.diag("untraced_mean_us", baseMean, "us")
	res.diag("traced_mean_us", top.meanUs(), "us")
	res.diag("peak_rss_mb", peakRSSMB(), "MB")
	if traceFile != "" {
		if err := t.writeFile(traceFile, w.name); err != nil {
			return nil, err
		}
	}
	return res, nil
}

var errWrongResult = errors.New("wrong result")
