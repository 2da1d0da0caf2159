package scenario

import (
	"fmt"
	"testing"
	"time"

	"hivemind/internal/sim"
)

// BenchmarkMegaSwarm10k is the headline sharding benchmark: one 10⁴-
// device mixed-fleet mission, executed by 1, 2 and 8 workers over the
// same scenario-fixed cell decomposition. Results are byte-identical
// across the sub-benchmarks (the parity lane asserts it); only the
// wall-clock differs, and the shards=8/shards=1 ratio is the speedup
// make bench-sim records into BENCH_sim.json. Each sub-benchmark also
// reports the executive's per-mission wall-clock split: busy_ms (cell
// sweeps), wait_ms (barrier, both summed over the sweeping goroutines)
// and exchange_ms (outbox exchange).
func BenchmarkMegaSwarm10k(b *testing.B) {
	for _, w := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("shards=%d", w), func(b *testing.B) {
			var tm sim.Timing
			for i := 0; i < b.N; i++ {
				res, se, err := runSwarm(SwarmConfig{
					Devices:   10000,
					Shards:    w,
					Seed:      7,
					DurationS: 2,
					FailProb:  0.001,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Steps == 0 {
					b.Fatal("empty run")
				}
				t := se.Timing()
				tm.Busy += t.Busy
				tm.Wait += t.Wait
				tm.Exchange += t.Exchange
			}
			perMission := func(d time.Duration) float64 { return d.Seconds() * 1e3 / float64(b.N) }
			b.ReportMetric(perMission(tm.Busy), "busy_ms")
			b.ReportMetric(perMission(tm.Wait), "wait_ms")
			b.ReportMetric(perMission(tm.Exchange), "exchange_ms")
		})
	}
}
