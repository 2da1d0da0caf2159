package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a percentile before the
// benchmark reports it: a p99 from fewer than 1000 samples is a guess
// about the slowest handful of requests, not a percentile.
const minTail = 10

// dist is a sorted sample of one quantity.
type dist []float64

func newDist(xs []float64) dist {
	d := append(dist(nil), xs...)
	sort.Float64s(d)
	return d
}

// pct returns the nearest-rank q-th percentile, and whether at least
// minTail samples lie beyond it.
func (d dist) pct(q float64) (float64, bool) {
	if len(d) == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q / 100 * float64(len(d))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(d) {
		rank = len(d)
	}
	return d[rank-1], len(d)-rank >= minTail
}

// must returns the q-th percentile, or NaN when the sample cannot
// support it; callers print NaN as a missing value.
func (d dist) must(q float64) float64 {
	v, ok := d.pct(q)
	if !ok {
		return math.NaN()
	}
	return v
}

func (d dist) max() float64 {
	if len(d) == 0 {
		return 0
	}
	return d[len(d)-1]
}

// median of a small unsorted sample (set-up repetitions, missions).
func median(xs []float64) float64 {
	return newDist(xs).pctAny(50)
}

// pctAny is the nearest-rank percentile without the tail-support rule,
// for samples that are repetitions of one measurement rather than a
// latency population.
func (d dist) pctAny(q float64) float64 {
	v, _ := d.pct(q)
	return v
}

// slo is the service-level objective a rate must meet on the ladder.
type slo struct {
	p99Ms    float64 // p99 latency limit
	failFrac float64 // shed, timed-out, errored or wrong replies over sent
	lateMs   float64 // generator lateness limit: see judge and behind
}

// rung is one measured step of the rate ladder.
type rung struct {
	rate    float64
	sent    int
	failed  int
	p99Ms   float64
	p99OK   bool    // enough samples beyond the p99
	lateMs  float64 // 90th-percentile generator lateness
	backlog int     // requests still in flight when the schedule ended
	passed  bool
	reason  string
}

// judge decides whether a rung meets the objective. A rung fails when
// its p99 is over the limit or unsupported, too many requests failed,
// the generator fell behind its schedule, or requests piled up faster
// than one SLO's worth of arrivals could drain. Lateness is judged at
// its 90th percentile: latency already counts every stall from the
// scheduled send, and a single stall of a shared host is not a
// generator that cannot keep up.
func (s slo) judge(r *rung) {
	switch {
	case !r.p99OK:
		r.reason = "too few samples for a p99"
	case r.p99Ms > s.p99Ms:
		r.reason = "p99 over limit"
	case float64(r.failed) > s.failFrac*float64(r.sent):
		r.reason = "failures over limit"
	case r.lateMs > s.lateMs:
		r.reason = "generator fell behind"
	case float64(r.backlog) > r.rate*s.p99Ms/1e3:
		r.reason = "backlog grew"
	default:
		r.passed = true
		r.reason = "ok"
	}
}

// behind reports whether the generator ran behind its schedule through
// a fixed-rate phase: its median lateness is over the limit. A
// generator that cannot keep up falls further behind with every
// arrival, so most arrivals go out late. A stall of a shared host
// delays only the arrivals around it before the schedule is caught up,
// and latency, timed from the scheduled send, already counts it.
func (s slo) behind(late []float64) bool { return median(late) > s.lateMs }

// ladder is a fixed geometric sequence of offered rates.
type ladder struct {
	base, ratio float64
	steps       int
}

func (l ladder) rate(k int) float64 { return l.base * math.Pow(l.ratio, float64(k)) }

// climb measures rungs from the bottom of the ladder up and stops at
// the first that fails twice in a row, so one stall of a shared host
// does not end the climb; it returns the highest passing rate (0 when
// even the first rung fails) and every rung measured.
func (l ladder) climb(s slo, measure func(rate float64) rung) (float64, []rung) {
	var best float64
	var rungs []rung
	for k := 0; k < l.steps; k++ {
		passed := false
		for try := 0; try < 2 && !passed; try++ {
			r := measure(l.rate(k))
			s.judge(&r)
			rungs = append(rungs, r)
			passed = r.passed
		}
		if !passed {
			break
		}
		best = l.rate(k)
	}
	return best, rungs
}

// windowP99 splits a phase's latencies, in schedule order, into as many
// consecutive windows of at least minWindow requests as it holds and
// returns the median of the windows' p99s. A stall of the host inflates
// the p99 of the window it falls in, not the reported value.
func windowP99(lat []float64, at []time.Time) float64 {
	const minWindow = 100 * minTail
	idx := make([]int, len(lat))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return at[idx[a]].Before(at[idx[b]]) })
	k := len(lat) / minWindow
	if k == 0 {
		return math.NaN()
	}
	p99s := make([]float64, k)
	for w := 0; w < k; w++ {
		lo, hi := w*len(lat)/k, (w+1)*len(lat)/k
		win := make([]float64, 0, hi-lo)
		for _, i := range idx[lo:hi] {
			win = append(win, lat[i])
		}
		p99s[w] = newDist(win).must(99)
	}
	return median(p99s)
}
