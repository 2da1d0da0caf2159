package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"hivemind/internal/geo"
	"hivemind/internal/netsim"
	"hivemind/internal/scenario"
	"hivemind/internal/sim"
)

// swarm-10k: the converged 10⁴-device mega-swarm mission, the whole
// simulator path and no live-stack code. The mission is long enough
// for every rumor to reach the fleet; shorter missions end before
// gossip spreads and time only the set-up.
const (
	swarmDevices  = 10000
	swarmMissionS = 6.0
	swarmCoverage = 0.99
	swarmMissions = 3 // at least, so a seed's repeats can be compared
	// quietSteal is the share of the host's CPU time the hypervisor may
	// take during a mission before its wall time is set aside: the
	// mission keeps every CPU busy and waits at a barrier every window,
	// so stolen time stretches it far more than it stretches a request.
	quietSteal = 0.05
	// quietMissions is how many quiet missions a run waits for, for up
	// to quietWait run lengths, before it settles for what it has.
	quietMissions  = 5
	quietWait      = 3
	swarmSetupReps = 5
	swarmLatencyS  = 0.005 // scenario default radio latency and lookahead
)

func swarmConfig(seed int64, shards int) scenario.SwarmConfig {
	return scenario.SwarmConfig{Devices: swarmDevices, Seed: swarmSeed(seed), DurationS: swarmMissionS, Shards: shards}
}

// unconverged lists the layouts among seeds 1–100 on which the mission
// cannot reach swarmCoverage. In 36 and 43 a rumor's source has no
// neighbour in radio range, so the rumor never leaves it (coverage
// 0.01%); in 24 and 97 rumors are still spreading when the mission ends
// (95.3% and 92.2%).
var unconverged = map[int64]bool{24: true, 36: true, 43: true, 97: true}

// swarmSeed maps the benchmark seed onto the layouts of seeds 1–100 that
// converge: the next one at or after the seed, wrapping round.
func swarmSeed(seed int64) int64 {
	s := ((seed-1)%100+100)%100 + 1
	for unconverged[s] {
		s = s%100 + 1
	}
	return s
}

// swarmSetup builds a mission's static structures through the entry
// points RunSwarm calls before its first event — the cell index, the
// sharded executive, the neighbour index and the radio — on a fleet
// laid out like the default mix. It returns the time of each step.
func swarmSetup(seed int64, tr *tracer) (cellMs, nbrMs float64, err error) {
	field := math.Sqrt(swarmDevices) * 10
	cells := geo.Partition(geo.NewField(field, field), swarmDevices/128)
	mix := scenario.DefaultMix()
	rng := rand.New(rand.NewSource(swarmSeed(seed)))
	pts := make([]geo.Point, swarmDevices)
	ranges := make([]float64, swarmDevices)
	for d := range pts {
		pts[d] = geo.Point{X: rng.Float64() * field, Y: rng.Float64() * field}
		u, cls := rng.Float64(), len(mix)-1
		for i, acc := 0, 0.0; i < len(mix); i++ {
			if acc += mix[i].Frac; u <= acc {
				cls = i
				break
			}
		}
		ranges[d] = mix[cls].RadioRangeM
	}
	t := time.Now()
	cix := geo.BuildCellIndex(cells, pts)
	tr.add("setup", "geo.cell_index", t)
	cellMs = float64(time.Since(t)) / 1e6
	se, err := sim.NewSharded(swarmSeed(seed), len(cells), swarmLatencyS, nproc())
	if err != nil {
		return 0, 0, err
	}
	t = time.Now()
	ix := netsim.BuildNeighborIndex(pts, ranges)
	tr.add("setup", "netsim.neighbors", t)
	nbrMs = float64(time.Since(t)) / 1e6
	if _, err := netsim.NewRadio(se, ix, cix.CellOwners(), swarmLatencyS); err != nil {
		return 0, 0, err
	}
	return cellMs, nbrMs, nil
}

// mission is one timed RunSwarm call.
type mission struct {
	res    scenario.SwarmResult
	digest string
	secs   float64
	allocB float64
	steal  float64 // share of the host's CPU time taken by the hypervisor meanwhile
}

func runMission(seed int64, shards int, tr *tracer) (mission, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	steal0, total0 := hostSteal()
	start := time.Now()
	res, err := scenario.RunSwarm(swarmConfig(seed, shards))
	secs := time.Since(start).Seconds()
	steal1, total1 := hostSteal()
	tr.add(fmt.Sprintf("shards=%d", shards), "scenario.mission", start)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return mission{}, err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return mission{}, err
	}
	sum := sha256.Sum256(b)
	if res.CoveredFrac < swarmCoverage {
		return mission{}, fmt.Errorf("mission did not converge: %s", res)
	}
	return mission{res: res, digest: hex.EncodeToString(sum[:8]), secs: secs,
		allocB: float64(m1.TotalAlloc - m0.TotalAlloc), steal: ratio(steal1-steal0, total1-total0)}, nil
}

// hostSteal reads the guest's cumulative steal and total CPU time from
// /proc/stat, in clock ticks; both are 0 where it is not available.
func hostSteal() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func runSwarm(c config) (*result, error) {
	if c.trace {
		return traceSwarm(c)
	}
	setup, err := repeatSetup(func() error {
		_, _, err := swarmSetup(c.seed, nil)
		return err
	}, func() error { return nil })
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	measure := time.Duration(c.seconds * float64(time.Second))
	var all, quiet, allocs []float64
	var first mission
	res := &result{Correct: true}
	start := time.Now()
	for n := 0; n < swarmMissions || time.Since(start) < measure ||
		(len(quiet) < quietMissions && time.Since(start) < quietWait*measure); n++ {
		m, err := runMission(c.seed, nproc(), nil)
		res.Attempted++
		if err != nil {
			// Every mission of a run is the same seed's: one failure
			// repeats in all of them.
			logf("mission %d: %v", n, err)
			res.Failed++
			res.Correct = false
			break
		}
		if first.digest == "" {
			first = m
			logf("mission: %s, %d events, digest %s", m.res, m.res.Steps, m.digest)
		} else if m.digest != first.digest {
			logf("mission %d: digest %s differs from %s for the same seed", n, m.digest, first.digest)
			res.Correct = false
		}
		all = append(all, m.secs)
		if m.steal <= quietSteal {
			quiet = append(quiet, m.secs)
		}
		allocs = append(allocs, m.allocB)
	}
	d := newDist(all)
	logf("%d missions in %.1fs, %d quiet: median %.3fs, quiet median %.3fs, slowest %.3fs",
		len(all), time.Since(start).Seconds(), len(quiet), d.pctAny(50), median(quiet), d.max())
	if len(quiet) < swarmMissions {
		logf("the host took over %.0f%% of the CPU during most missions; reporting the median of all", quietSteal*100)
		quiet = all
	}
	res.add("p50_ms", median(quiet)*1e3, "ms")
	res.add("heap_mb", liveHeapMB(), "MB")
	res.add("alloc_mb", median(allocs)/(1<<20), "MB")
	res.add("setup_s", setup, "s")
	return res, nil
}

// traceSwarm runs the mission once at Shards=1 and once at one shard
// per CPU on the same seed: the single-shard run is the reference the
// sharded result must equal, and the ratio of their times is the
// shard speed-up.
func traceSwarm(c config) (*result, error) {
	tr := &tracer{}
	var cells, nbrs []float64
	for i := 0; i < swarmSetupReps; i++ {
		cm, nm, err := swarmSetup(c.seed, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		cells, nbrs = append(cells, cm), append(nbrs, nm)
	}
	one, err := runMission(c.seed, 1, tr)
	if err != nil {
		return nil, err
	}
	many, err := runMission(c.seed, nproc(), tr)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: 2, Correct: one.digest == many.digest}
	if !res.Correct {
		logf("Shards=%d digest %s differs from the Shards=1 reference %s", nproc(), many.digest, one.digest)
	}
	r := many.res
	logf("Shards=1 %.3fs, Shards=%d %.3fs: %s", one.secs, nproc(), many.secs, r)
	res.add("sim.steps", float64(r.Steps), "count")
	res.add("sim.windows", float64(r.Windows), "count")
	res.add("sim.cross_msgs", float64(r.CrossMessages), "count")
	res.add("sim.events_per_s", float64(r.Steps)/many.secs, "1/s")
	res.add("sim.shard_speedup", one.secs/many.secs, "x")
	res.add("netsim.neighbor_build_ms", median(nbrs), "ms")
	res.add("netsim.deliveries_per_broadcast", ratio(float64(r.Radio.Deliveries), float64(r.Radio.Broadcasts)), "count")
	res.add("geo.cell_index_ms", median(cells), "ms")
	res.add("scenario.coverage", r.CoveredFrac, "frac")
	res.add("scenario.mission_s", many.secs, "s")
	if err := tr.write(fmt.Sprintf("%s/spans-%s.jsonl", buildDir, c.workload), nil); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return res, nil
}
