package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so pct must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	d := newDist(seq(100))
	for _, c := range []struct {
		q    float64
		want float64
		ok   bool
	}{
		{50, 50, true},  // 50 samples beyond
		{90, 90, true},  // exactly minTail beyond
		{91, 91, false}, // 9 beyond: not reportable
		{99, 99, false},
		{100, 100, false},
		{0, 1, true},
	} {
		got, ok := d.pct(c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("pct(%v) = %v, %v; want %v, %v", c.q, got, ok, c.want, c.ok)
		}
	}
}

func TestP99NeedsAThousandSamples(t *testing.T) {
	if _, ok := newDist(seq(999)).pct(99); ok {
		t.Error("p99 of 999 samples reported as supported")
	}
	if v, ok := newDist(seq(1000)).pct(99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if !math.IsNaN(newDist(nil).must(50)) {
		t.Error("median of an empty sample is not NaN")
	}
}

func TestMedianOfRepetitions(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2 {
		t.Errorf("median = %v, want the lower middle 2", m)
	}
}

func TestWindowP99IgnoresOneStalledWindow(t *testing.T) {
	start := time.Unix(0, 0)
	var lat []float64
	var at []time.Time
	for i := 0; i < 3000; i++ {
		l := float64(1 + i%100) // p99 of every window is 99
		if i >= 1000 && i < 1100 {
			l = 500 // a stall in the second window
		}
		lat = append(lat, l)
		at = append(at, start.Add(time.Duration(i)*time.Millisecond))
	}
	if got := windowP99(lat, at); got != 99 {
		t.Errorf("windowP99 = %v, want 99", got)
	}
	if got := windowP99(lat[:999], at[:999]); !math.IsNaN(got) {
		t.Errorf("windowP99 of 999 samples = %v, want NaN", got)
	}
}

func TestJudge(t *testing.T) {
	s := slo{p99Ms: 50, failFrac: 0.001, lateMs: 5}
	for _, c := range []struct {
		name string
		r    rung
		pass bool
	}{
		{"ok", rung{rate: 1000, sent: 2000, p99Ms: 20, p99OK: true, lateMs: 1, backlog: 10}, true},
		{"unsupported p99", rung{rate: 1000, sent: 500, p99Ms: 20, lateMs: 1}, false},
		{"slow", rung{rate: 1000, sent: 2000, p99Ms: 51, p99OK: true, lateMs: 1}, false},
		{"failures", rung{rate: 1000, sent: 2000, failed: 3, p99Ms: 20, p99OK: true, lateMs: 1}, false},
		{"late generator", rung{rate: 1000, sent: 2000, p99Ms: 20, p99OK: true, lateMs: 6}, false},
		{"backlog", rung{rate: 1000, sent: 2000, p99Ms: 20, p99OK: true, lateMs: 1, backlog: 51}, false},
	} {
		r := c.r
		s.judge(&r)
		if r.passed != c.pass {
			t.Errorf("%s: passed = %v (%s), want %v", c.name, r.passed, r.reason, c.pass)
		}
	}
}

func TestBehindIgnoresACaughtUpStall(t *testing.T) {
	late := make([]float64, 1000)
	for i := range late {
		late[i] = 0.5
	}
	// A 20 ms stall of the host, caught up over the next 200 arrivals:
	// 15% of arrivals go out over 5 ms late.
	for i := 400; i < 600; i++ {
		late[i] = float64(600-i) * 0.1
	}
	if objective.behind(late) {
		t.Error("a stall the generator caught up counted as falling behind")
	}
	// A generator that cannot keep up ends 20 ms behind.
	for i := range late {
		late[i] = float64(i) * 0.02
	}
	if !objective.behind(late) {
		t.Error("a generator losing ground with every arrival was not behind")
	}
}

func TestLadderClimb(t *testing.T) {
	l := ladder{base: 100, ratio: 2, steps: 10}
	s := slo{p99Ms: 50, failFrac: 0.001, lateMs: 5}
	measure := func(capacity float64, flaky map[float64]int) func(float64) rung {
		return func(rate float64) rung {
			p99 := 10.0
			if rate > capacity {
				p99 = 100
			}
			if flaky[rate] > 0 {
				flaky[rate]--
				p99 = 100
			}
			return rung{rate: rate, sent: 2000, p99Ms: p99, p99OK: true}
		}
	}
	best, rungs := l.climb(s, measure(500, nil))
	if best != 400 {
		t.Errorf("best = %v, want 400", best)
	}
	if len(rungs) != 5 { // 100, 200, 400 pass; 800 fails twice
		t.Errorf("measured %d rungs, want 5", len(rungs))
	}
	// One failure of a rung is retried; two in a row end the climb.
	if best, _ := l.climb(s, measure(500, map[float64]int{200: 1})); best != 400 {
		t.Errorf("with one stall: best = %v, want 400", best)
	}
	if best, _ := l.climb(s, measure(500, map[float64]int{200: 2})); best != 100 {
		t.Errorf("with a failing rung: best = %v, want 100", best)
	}
	if best, _ := l.climb(s, measure(50, nil)); best != 0 {
		t.Errorf("below the first rung: best = %v, want 0", best)
	}
}

func TestAttributeAddsUpToTheRequest(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, int64(ms)*int64(time.Millisecond)) }
	spans := []span{
		{name: "request", start: at(0), end: at(10)},
		{name: "loadgen.wait", start: at(0), end: at(1)},
		{name: "http.client", start: at(1), end: at(9)},
		{name: "ingress.serve", start: at(2), end: at(8)},
		{name: "runtime.dispatch", start: at(3), end: at(7)},
		{name: "rpc.server", start: at(3), end: at(6)},
		{name: "fn", start: at(4), end: at(5)},
	}
	share, total, ok := attribute(spans)
	if !ok || total != 10 {
		t.Fatalf("total = %v, %v", total, ok)
	}
	want := map[string]float64{"loadgen": 1, "http": 2, "ingress": 2, "rpc": 1, "runtime": 2, "fn": 1, "unattributed": 1}
	sum := 0.0
	for k, v := range want {
		if share[k] != v {
			t.Errorf("%s = %v ms, want %v", k, share[k], v)
		}
		sum += share[k]
	}
	if sum != total {
		t.Errorf("shares add up to %v, want %v", sum, total)
	}
}

func TestSwarmSeedSkipsUnconvergedLayouts(t *testing.T) {
	for seed, want := range map[int64]int64{1: 1, 23: 23, 24: 25, 36: 37, 97: 98, 100: 100, 101: 1, 124: 25, 0: 100, -1: 99} {
		if got := swarmSeed(seed); got != want {
			t.Errorf("swarmSeed(%d) = %d, want %d", seed, got, want)
		}
	}
}
