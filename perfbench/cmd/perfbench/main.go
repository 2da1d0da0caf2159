// Command perfbench is the repository's benchmark. It drives the stack
// from outside, in one process, through the public entry points the
// shipped binaries use, and prints one JSON result line last on its
// standard output.
//
//	bash perfbench/run.sh --workload jobs-group --seed 1 --seconds 20 --trace 0
//
// Workloads: jobs-group, jobs-durable (open loops into the HTTP job
// API) and swarm-10k (the converged 10⁴-device mission). With
// --trace 0 it reports the end-to-end metrics; with --trace 1 a
// separate traced run reports the per-layer ones and writes its spans
// to .bench_build/spans-<workload>.jsonl. The host fingerprint precedes
// the result line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// buildDir holds everything the benchmark writes, under the checkout.
const buildDir = ".bench_build"

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) add(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		logf("%s: too few samples to report", name)
		r.Correct = false
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// endToEnd and perLayer are the metrics every run reports, with
// --trace 0 and --trace 1 respectively. A per-layer metric of a layer
// the workload never enters reads 0.
var endToEnd = []string{"p50_ms", "heap_mb", "alloc_mb", "setup_s"}

var perLayer = map[string]string{
	"ingress.forward_frac": "frac", "ingress.spill_frac": "frac", "ingress.coalesce_ratio": "frac",
	"runtime.shed": "count", "runtime.admission_queued.max": "count",
	"store.wal_appends_per_task": "count", "store.fsyncs_per_task": "count",
	"controller.leader_changes": "count", "metrics.scrape_ms.max": "ms",
	"metrics.observe_ns.p50": "ns", "alloc_kb_per_req": "KB",
	"loadgen.late_ms.max": "ms", "loadgen.max_rps_at_slo": "1/s", "loadgen.p99_ms": "ms", "loadgen.fail_frac": "frac", "trace.overhead_ms": "ms",
	"sim.steps": "count", "sim.windows": "count", "sim.cross_msgs": "count",
	"sim.events_per_s": "1/s", "sim.shard_speedup": "x",
	"netsim.neighbor_build_ms": "ms", "netsim.deliveries_per_broadcast": "count",
	"geo.cell_index_ms": "ms", "scenario.coverage": "frac", "scenario.mission_s": "s",
}

func init() {
	for _, k := range layerMetricNames {
		perLayer[k] = layerUnit(k)
	}
}

var workloads = map[string]func(config) (*result, error){
	"jobs-group": func(c config) (*result, error) {
		return runLive(liveSpec{
			rate: 400,
			boot: func(seed int64, tr *tracer) (stack, error) { return bootGroup(seed, tr) },
		}, c)
	},
	"jobs-durable": func(c config) (*result, error) {
		return runLive(liveSpec{
			rate: 200,
			boot: func(seed int64, tr *tracer) (stack, error) { return bootDurable(seed, tr) },
		}, c)
	},
	"swarm-10k": runSwarm,
}

func main() {
	var c config
	var trace int
	flag.StringVar(&c.workload, "workload", "", "jobs-group, jobs-durable or swarm-10k")
	flag.Int64Var(&c.seed, "seed", 1, "seed for payloads, duplicate grouping and the swarm")
	flag.Float64Var(&c.seconds, "seconds", 20, "how long the measured phases run")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	c.trace = trace == 1
	run, ok := workloads[c.workload]
	if !ok || c.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload jobs-group|jobs-durable|swarm-10k --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fatal(err)
	}
	host, err := fingerprint()
	if err != nil {
		fatal(err)
	}
	hb, err := json.Marshal(host)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("host %s\n", hb)

	start := time.Now()
	res, err := run(c)
	if err != nil {
		fatal(err)
	}
	want := endToEnd
	if c.trace {
		want = want[:0:0]
		for k, unit := range perLayer {
			want = append(want, k)
			if _, ok := res.Metrics[k]; !ok {
				res.add(k, 0, unit)
			}
		}
	}
	sort.Strings(want)
	if len(res.Metrics) != len(want) {
		fatal(fmt.Errorf("measured %d metrics, want the %d listed", len(res.Metrics), len(want)))
	}
	for _, k := range want {
		m, ok := res.Metrics[k]
		if !ok {
			fatal(fmt.Errorf("metric %s was not measured", k))
		}
		logf("%-34s %14.4f %s", k, m.Value, m.Unit)
	}
	logf("%s seed %d: %.1fs, correct=%v attempted=%d failed=%d", c.workload, c.seed, time.Since(start).Seconds(), res.Correct, res.Attempted, res.Failed)
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func nproc() int { return runtime.NumCPU() }

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// mix is splitmix64 of seed and i: the benchmark's only source of
// input randomness, so one seed always yields one set of inputs.
func mix(seed int64, i uint64) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + i*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
