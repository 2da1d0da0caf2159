package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"hivemind/internal/metrics"
)

// stack is a booted live workload.
type stack interface {
	target
	meanBurst() float64
	registries() []*metrics.Registry
	snapshot() counters
	queued() int
	observeNs() []float64
	creators() map[string]string
	verify(coalesced uint64) error
	close() error
}

// counters are the stack's own monitor counters, read between phases.
type counters struct {
	posted, coalesced, dispatched, forwarded, spilled uint64 // ingress.Stats
	shed                                              uint64 // AdmissionStats
	walAppends, fsyncs                                float64
	elections                                         int
}

func (c counters) minus(b counters) counters {
	return counters{
		posted: c.posted - b.posted, coalesced: c.coalesced - b.coalesced,
		dispatched: c.dispatched - b.dispatched, forwarded: c.forwarded - b.forwarded,
		spilled: c.spilled - b.spilled, shed: c.shed - b.shed,
		walAppends: c.walAppends - b.walAppends, fsyncs: c.fsyncs - b.fsyncs,
		elections: c.elections - b.elections,
	}
}

// liveSpec fixes one live workload.
type liveSpec struct {
	rate float64 // fixed offered rate, requests per second
	boot func(seed int64, tr *tracer) (stack, error)
}

// requestDeadline bounds each request of the open loop.
const requestDeadline = 2 * time.Second

// objective is the latency limit every live rate is judged against.
var objective = slo{p99Ms: 50, failFrac: 0.001, lateMs: 5}

// warmup runs before every measured phase at its rate, so connection
// pools, goroutine pools and the heap are grown before timing starts.
const warmup = time.Second

// repeatSetup times set-up at least minSetups times and for at least
// setupFor, and returns the median in seconds: one set-up takes
// milliseconds on some workloads, well inside a shared host's jitter.
// Before every set-up but the first, reset tears the previous one down,
// untimed; the last is left standing for the caller.
func repeatSetup(boot, reset func() error) (float64, error) {
	const (
		minSetups = 9
		maxSetups = 100
		setupFor  = time.Second
	)
	var times []float64
	start := time.Now()
	for len(times) < minSetups || (len(times) < maxSetups && time.Since(start) < setupFor) {
		if len(times) > 0 {
			if err := reset(); err != nil {
				return 0, err
			}
		}
		t := time.Now()
		if err := boot(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t).Seconds())
	}
	return median(times), nil
}

// measured is one fixed-rate phase with the stack's counters and the
// process's resources around it.
type measured struct {
	ph       *phase
	delta    counters
	heapMB   float64
	allocB   float64 // bytes allocated per request
	scrapeMs float64
	verified error
}

// fixedPhase warms the stack up, then drives it at the fixed rate for
// dur and checks the outputs only the stack can check.
func fixedPhase(st stack, g *gen, rate float64, dur time.Duration, tr *tracer) (*measured, error) {
	sc := startScraper(st.registries())
	if w := g.run(rate, warmup); w.fails[wrongOut] > 0 {
		sc.close()
		return nil, fmt.Errorf("warm-up: %d wrong outputs", w.fails[wrongOut])
	}
	if tr != nil {
		tr.mu.Lock()
		tr.spans = nil
		tr.mu.Unlock()
	}
	var m0, m1 runtime.MemStats
	c0 := st.snapshot()
	runtime.ReadMemStats(&m0)
	ph := g.run(rate, dur)
	runtime.ReadMemStats(&m1)
	c1 := st.snapshot()
	scrape := sc.close()
	n := float64(max(ph.sent, 1))
	return &measured{
		ph:       ph,
		delta:    c1.minus(c0),
		heapMB:   liveHeapMB(),
		allocB:   float64(m1.TotalAlloc-m0.TotalAlloc) / n,
		scrapeMs: scrape,
		verified: st.verify(c1.coalesced),
	}, nil
}

// liveHeapMB is the heap still reachable after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC() // the second empties sync.Pool victim caches
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// toRung judges a phase as a rung of the ladder. Failed requests count
// as missing the latency limit.
func toRung(ph *phase) rung {
	lat := append([]float64(nil), ph.lat...)
	for i := 0; i < ph.failed(); i++ {
		lat = append(lat, math.Inf(1))
	}
	p99, ok := newDist(lat).pct(99)
	r := rung{rate: ph.rate, sent: ph.sent, failed: ph.failed(), p99Ms: p99, p99OK: ok,
		lateMs: newDist(ph.late).pctAny(90), backlog: ph.backlog}
	objective.judge(&r)
	return r
}

// rungTime is how long one ladder rung runs: long enough for 1500
// requests, so its p99 has at least ten samples beyond it.
func rungTime(rate float64) time.Duration {
	return max(time.Duration(1500/rate*float64(time.Second)), 500*time.Millisecond)
}

func logPhase(name string, ph *phase, dur time.Duration) {
	lat := newDist(ph.lat)
	logf("%s %.0f rps for %v: sent %d ok %d shed %d timeout %d err %d wrong %d; late p50 %.2fms p90 %.2fms max %.2fms; backlog %d; p50 %.3fms p99 %.3fms",
		name, ph.rate, dur, ph.sent, ph.fails[okOut], ph.fails[shedOut], ph.fails[timeoutOut], ph.fails[errOut], ph.fails[wrongOut],
		median(ph.late), newDist(ph.late).pctAny(90), ph.lateMs, ph.backlog, lat.must(50), lat.must(99))
}

// runLive is the untraced run: set-up timed repeatedly, then a
// fixed-rate open loop whose latency, CPU and memory are the
// end-to-end metrics.
func runLive(spec liveSpec, c config) (*result, error) {
	dur := time.Duration(c.seconds * float64(time.Second))
	if c.trace {
		return traceLive(spec, c, dur)
	}
	var st stack
	setup, err := repeatSetup(func() error {
		var err error
		st, err = spec.boot(c.seed, nil)
		return err
	}, func() error {
		err := st.close()
		st = nil
		return err
	})
	if err != nil {
		if st != nil {
			st.close()
		}
		return nil, fmt.Errorf("set-up: %w", err)
	}
	g := &gen{t: st, meanBurst: st.meanBurst()}
	m, err := fixedPhase(st, g, spec.rate, dur, nil)
	if cerr := st.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	ph := m.ph
	logPhase("fixed", ph, dur)
	lat := newDist(ph.lat)
	logf("heap %.1fMB, %.1fKB allocated per request, slowest scrape %.2fms", m.heapMB, m.allocB/1024, m.scrapeMs)
	behind := objective.behind(ph.late)
	res := &result{Attempted: int64(ph.sent), Failed: int64(ph.failed())}
	res.Correct = ph.fails[wrongOut] == 0 && m.verified == nil && !behind
	if m.verified != nil {
		logf("verify: %v", m.verified)
	}
	if behind {
		logf("invalid run: the generator fell behind its schedule (median lateness %.2fms)", median(ph.late))
	}
	res.add("p50_ms", lat.must(50), "ms")
	res.add("heap_mb", m.heapMB, "MB")
	res.add("alloc_mb", m.allocB/(1<<20), "MB")
	res.add("setup_s", setup, "s")
	return res, nil
}

// traceLive measures the per-layer metrics. An untraced fixed-rate
// phase gives the counters and the reference p50, and the rate ladder
// above it gives max_rps_at_slo; then a fresh stack with every boundary
// wrapped runs the fixed-rate phase again and its spans give the layer
// times.
func traceLive(spec liveSpec, c config, dur time.Duration) (*result, error) {
	st, err := spec.boot(c.seed, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	g := &gen{t: st, meanBurst: st.meanBurst()}
	m, err := fixedPhase(st, g, spec.rate, dur, nil)
	best, wrong := 0.0, 0
	if err == nil {
		logPhase("untraced", m.ph, dur)
		// The fixed rate is the ladder's first rung; climb from there
		// until a rung misses the objective twice.
		if first := toRung(m.ph); first.passed {
			sc := startScraper(st.registries())
			steps := ladder{base: spec.rate * 1.25, ratio: 1.25, steps: 16}
			top, rungs := steps.climb(objective, func(rate float64) rung {
				p := g.run(rate, rungTime(rate))
				wrong += p.fails[wrongOut]
				return toRung(p)
			})
			sc.close()
			for _, r := range rungs {
				logf("rung %.0f rps: sent %d failed %d p99 %.2fms late p90 %.2fms backlog %d: %s", r.rate, r.sent, r.failed, r.p99Ms, r.lateMs, r.backlog, r.reason)
			}
			best = math.Max(spec.rate, top)
		} else {
			logf("the fixed rate misses the objective: %s", first.reason)
		}
	}
	if cerr := st.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	tr := &tracer{}
	tst, err := spec.boot(c.seed, tr)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	tg := &gen{t: tst, meanBurst: tst.meanBurst(), tr: tr, nextEvent: g.nextEvent, nextOp: g.nextOp}
	qs := startSampler(tst.queued)
	tm, err := fixedPhase(tst, tg, spec.rate, dur, tr)
	queuedMax := qs.close()
	observe := newDist(tst.observeNs())
	creators := tst.creators()
	if cerr := tst.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	logPhase("traced", tm.ph, dur)

	res := &result{Attempted: int64(m.ph.sent + tm.ph.sent), Failed: int64(m.ph.failed() + tm.ph.failed())}
	res.Correct = wrong+m.ph.fails[wrongOut]+tm.ph.fails[wrongOut] == 0 && m.verified == nil && tm.verified == nil
	for _, e := range []error{m.verified, tm.verified} {
		if e != nil {
			logf("verify: %v", e)
		}
	}
	sent := float64(m.ph.sent)
	d := m.delta
	res.add("loadgen.max_rps_at_slo", best, "1/s")
	res.add("ingress.forward_frac", float64(d.forwarded)/sent, "frac")
	res.add("ingress.spill_frac", float64(d.spilled)/sent, "frac")
	res.add("ingress.coalesce_ratio", ratio(float64(d.coalesced), float64(d.posted)), "frac")
	res.add("runtime.shed", float64(d.shed), "count")
	res.add("runtime.admission_queued.max", float64(queuedMax), "count")
	res.add("store.wal_appends_per_task", ratio(d.walAppends, float64(d.dispatched)), "count")
	res.add("store.fsyncs_per_task", ratio(d.fsyncs, float64(d.dispatched)), "count")
	res.add("controller.leader_changes", float64(d.elections+tm.delta.elections), "count")
	res.add("metrics.scrape_ms.max", math.Max(m.scrapeMs, tm.scrapeMs), "ms")
	res.add("metrics.observe_ns.p50", observe.pctAny(50), "ns")
	res.add("alloc_kb_per_req", m.allocB/1024, "KB")
	res.add("loadgen.late_ms.max", m.ph.lateMs, "ms")
	res.add("loadgen.fail_frac", float64(m.ph.failed())/sent, "frac")
	layers := analyze(tr, creators)
	for _, k := range layerMetricNames {
		res.add(k, layers[k], layerUnit(k))
	}
	res.add("loadgen.p99_ms", windowP99(m.ph.lat, m.ph.latAt), "ms")
	p50, traced := newDist(m.ph.lat).pctAny(50), newDist(tm.ph.lat).pctAny(50)
	res.add("trace.overhead_ms", traced-p50, "ms")
	if err := tr.write(fmt.Sprintf("%s/spans-%s.jsonl", buildDir, c.workload), creators); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	logf("%d spans; p50 %.3fms untraced, %.3fms traced", len(tr.spans), p50, traced)
	return res, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
