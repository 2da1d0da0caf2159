// Mega-swarm scenario: a heterogeneous fleet (camera drones, robotic
// cars, BittyBuzz-class tiny robots) running the swarm-native workloads
// of §2.2 — hierarchical peer-to-peer localization (anchors propagate
// position confidence outward, Swarical-style) and rumor gossip — over
// the sharded simulation executive. Devices interact only through the
// wireless medium, so the whole mission partitions cleanly across
// per-geo-cell engines: every knob that affects results (cell count,
// seed, mix, field) is fixed by the scenario config, and the Shards
// knob only chooses how many OS threads execute it. RunSwarm therefore
// returns byte-identical results at -shards=1 and -shards=8, which the
// shard-parity CI lane asserts.
package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"hivemind/internal/chaos"
	"hivemind/internal/device"
	"hivemind/internal/geo"
	"hivemind/internal/netsim"
	"hivemind/internal/sim"
	"hivemind/internal/stats"
)

// SwarmClass describes one fleet class in the mix.
type SwarmClass struct {
	Name          string
	Cfg           device.Config
	Frac          float64 // fraction of the fleet
	RadioRangeM   float64 // broadcast reach
	BeaconMB      float64 // per-beacon payload (radio energy accounting)
	BeaconPeriodS float64 // gossip/localization beacon period
	SolvePeriodS  float64 // position re-solve period
	SolveIters    int     // gradient iterations per solve
}

// DefaultMix returns the mega-swarm fleet: a thin layer of long-range
// drones, a band of rovers, and a majority of tiny robots that can only
// hear nearby peers — so localization confidence must flow drone →
// rover → tinybot in hops.
func DefaultMix() []SwarmClass {
	return []SwarmClass{
		{Name: "drone", Cfg: device.DroneConfig(), Frac: 0.10, RadioRangeM: 60,
			BeaconMB: 0.01, BeaconPeriodS: 0.5, SolvePeriodS: 1.0, SolveIters: 6},
		{Name: "rover", Cfg: device.RoverConfig(), Frac: 0.30, RadioRangeM: 35,
			BeaconMB: 0.005, BeaconPeriodS: 1.0, SolvePeriodS: 2.0, SolveIters: 4},
		{Name: "tinybot", Cfg: device.TinyBotConfig(), Frac: 0.60, RadioRangeM: 14,
			BeaconMB: 0.0005, BeaconPeriodS: 2.0, SolvePeriodS: 4.0, SolveIters: 2},
	}
}

// SwarmConfig parameterises a mega-swarm run. Everything except Shards
// affects results; Shards only sets the executive's worker count and is
// guaranteed not to change a single output bit.
type SwarmConfig struct {
	Devices int     // fleet size (default 512)
	FieldM  float64 // square field side; 0 → sqrt(Devices)·10 (0.01 devices/m²)
	// Cells is the geo-cell decomposition the executive shards over.
	// It is part of the scenario (0 → Devices/128 clamped to [4,256]),
	// NOT derived from the machine — that is what makes results
	// independent of Shards.
	Cells int
	// Shards is the worker count executing the cells (0 → NumCPU).
	Shards int
	Seed   int64
	// DurationS is the simulated mission length (default 30).
	DurationS float64
	// RadioLatencyS is the medium's one-way MAC+propagation delay
	// (default 0.005). LookaheadS is the executive's declared cross-cell
	// lookahead (default = RadioLatencyS); it must not exceed the radio
	// latency or RunSwarm reports a *sim.LookaheadError.
	RadioLatencyS float64
	LookaheadS    float64
	// AnchorFrac is the fraction of devices with known positions
	// (GPS/surveyed; default 0.05).
	AnchorFrac float64
	// Rumors is how many gossip sources to seed (≤64; default 8).
	Rumors int
	// Mix is the fleet composition (default DefaultMix).
	Mix []SwarmClass
	// FailProb injects a per-beacon death probability via chaos
	// injectors (one per cell, seeded from (Seed, cell) so faults are
	// deterministic under sharding).
	FailProb float64
}

func (c SwarmConfig) withDefaults() SwarmConfig {
	if c.Devices <= 0 {
		c.Devices = 512
	}
	if c.FieldM <= 0 {
		c.FieldM = math.Sqrt(float64(c.Devices)) * 10
	}
	if c.Cells <= 0 {
		c.Cells = c.Devices / 128
		if c.Cells < 4 {
			c.Cells = 4
		}
		if c.Cells > 256 {
			c.Cells = 256
		}
	}
	if c.DurationS <= 0 {
		c.DurationS = 30
	}
	if c.RadioLatencyS <= 0 {
		c.RadioLatencyS = 0.005
	}
	if c.LookaheadS == 0 {
		c.LookaheadS = c.RadioLatencyS
	}
	if c.AnchorFrac <= 0 {
		c.AnchorFrac = 0.05
	}
	if c.Rumors <= 0 {
		c.Rumors = 8
	}
	if c.Mix == nil {
		c.Mix = DefaultMix()
	}
	return c
}

// ClassStats reports one fleet class's outcome.
type ClassStats struct {
	Name            string
	Count           int
	Failed          int
	CoveredFrac     float64 // heard every rumor
	LocErrMeanM     float64 // non-anchor final position error
	BatteryMeanFrac float64
}

// SwarmResult reports a mega-swarm run. It deliberately carries no
// worker count and no wall-clock measurement: two runs of the same
// SwarmConfig at different Shards values must produce DeepEqual (and
// byte-identical, once serialised) results.
type SwarmResult struct {
	Devices int
	Cells   int
	Anchors int
	Failed  int // devices dead at mission end (chaos or battery)

	CoveredFrac float64 // fraction of the fleet that heard every rumor
	SpreadP50S  float64 // median time to full rumor coverage
	SpreadP99S  float64 // tail time to full rumor coverage

	LocErrStartM float64 // mean non-anchor error before any solving
	LocErrMeanM  float64 // mean non-anchor error at mission end
	LocErrP95M   float64

	Classes []ClassStats
	Radio   netsim.RadioStats

	// Executive accounting (deterministic: window boundaries depend only
	// on event-queue minima, never on worker scheduling).
	Windows       uint64
	CrossMessages uint64
	Steps         uint64
}

// String summarises the result.
func (r SwarmResult) String() string {
	return fmt.Sprintf("swarm %d dev / %d cells: covered=%.1f%% (p99 %.1fs), locerr %.1fm→%.1fm, failed=%d, %d windows",
		r.Devices, r.Cells, r.CoveredFrac*100, r.SpreadP99S, r.LocErrStartM, r.LocErrMeanM, r.Failed, r.Windows)
}

// obs is a range observation a device holds about a neighbour: the
// neighbour's claimed position estimate and confidence, and the noisy
// measured distance to it.
type obs struct {
	est  geo.Point
	conf float64
	dist float64
}

const obsRing = 8

// swarmDev is one fleet member's mission state. It is owned by the
// device's geo cell: only events executing on that cell read or write
// it (broadcast payloads are snapshotted by value at send time).
type swarmDev struct {
	class  int
	dev    *device.Device
	anchor bool

	est  geo.Point
	conf float64
	obs  [obsRing]obs // obs[:nobs] hold observations
	nobs int
	next int // ring cursor once full

	rumors     uint64
	heardAllAt float64 // -1 until the full mask is assembled
}

func (s *swarmDev) pushObs(o obs) {
	if s.nobs < obsRing {
		s.obs[s.nobs] = o
		s.nobs++
		return
	}
	s.obs[s.next] = o
	s.next = (s.next + 1) % obsRing
}

// solve runs iters gradient-descent steps on the range residuals,
// weighting each observation by the claimed confidence, then adopts a
// decayed confidence from the best neighbour heard — the hierarchical
// hop: anchors are 1.0, their neighbours 0.9, the next ring 0.81, …
func (s *swarmDev) solve(iters int) {
	if s.anchor || s.nobs == 0 {
		return
	}
	held := s.obs[:s.nobs]
	best := 0.0
	for _, o := range held {
		if o.conf > best {
			best = o.conf
		}
	}
	if best <= 0 {
		return
	}
	for it := 0; it < iters; it++ {
		var gx, gy, wsum float64
		for _, o := range held {
			if o.conf <= 0 {
				continue
			}
			dx, dy := s.est.X-o.est.X, s.est.Y-o.est.Y
			d := math.Hypot(dx, dy)
			if d < 1e-9 {
				continue
			}
			resid := d - o.dist
			gx += o.conf * resid * dx / d
			gy += o.conf * resid * dy / d
			wsum += o.conf
		}
		if wsum <= 0 {
			return
		}
		s.est.X -= 0.5 * gx / wsum
		s.est.Y -= 0.5 * gy / wsum
	}
	s.conf = 0.9 * best
}

// RunSwarm executes the mega-swarm mission on the sharded executive.
func RunSwarm(cfg SwarmConfig) (SwarmResult, error) {
	res, _, err := runSwarm(cfg)
	return res, err
}

// runSwarm is RunSwarm that also hands back the executive, whose
// wall-clock Timing benchmarks report and results must never carry.
func runSwarm(cfg SwarmConfig) (SwarmResult, *sim.ShardedEngine, error) {
	cfg = cfg.withDefaults()
	if cfg.Rumors > 64 {
		return SwarmResult{}, nil, fmt.Errorf("scenario: %d rumors exceed the 64-bit gossip mask", cfg.Rumors)
	}
	if cfg.LookaheadS > cfg.RadioLatencyS {
		return SwarmResult{}, nil, fmt.Errorf("scenario: lookahead %g exceeds radio latency %g: %w",
			cfg.LookaheadS, cfg.RadioLatencyS, &sim.LookaheadError{LookaheadS: cfg.LookaheadS})
	}

	// Layout: a single seeded stream, consumed in device-id order during
	// setup, fixes positions, classes and phases identically at every
	// worker count.
	layout := rand.New(rand.NewSource(cfg.Seed))
	field := geo.NewField(cfg.FieldM, cfg.FieldM)
	cellRects := geo.Partition(field, cfg.Cells)
	n := cfg.Devices

	pts := make([]geo.Point, n)
	classOf := make([]int, n)
	ranges := make([]float64, n)
	cum := make([]float64, len(cfg.Mix))
	total := 0.0
	for i, cl := range cfg.Mix {
		total += cl.Frac
		cum[i] = total
	}
	for d := 0; d < n; d++ {
		pts[d] = geo.Point{X: layout.Float64() * cfg.FieldM, Y: layout.Float64() * cfg.FieldM}
		u := layout.Float64() * total
		classOf[d] = len(cfg.Mix) - 1
		for i, c := range cum {
			if u <= c {
				classOf[d] = i
				break
			}
		}
		ranges[d] = cfg.Mix[classOf[d]].RadioRangeM
	}

	cix := geo.BuildCellIndex(cellRects, pts)
	se, err := sim.NewSharded(cfg.Seed, len(cellRects), cfg.LookaheadS, cfg.Shards)
	if err != nil {
		return SwarmResult{}, nil, err
	}
	ix := netsim.BuildNeighborIndex(pts, ranges)
	radio, err := netsim.NewRadio(se, ix, cix.CellOwners(), cfg.RadioLatencyS)
	if err != nil {
		return SwarmResult{}, nil, err
	}

	// One fault injector per cell, seeded from (root seed, cell id):
	// each is consumed only by its owning cell's events, in that cell's
	// deterministic event order, so injected deaths are identical under
	// any sharding.
	inj := make([]*chaos.Injector, len(cellRects))
	for c := range inj {
		inj[c] = chaos.NewInjector(sim.SeedFor(cfg.Seed, c)^0x63686165f5, chaos.Config{FailProb: cfg.FailProb})
	}

	anchorEvery := int(math.Max(1, math.Round(1/cfg.AnchorFrac)))

	// Device state is laid out cell-major: each cell's devices sit in
	// one contiguous block, ascending ids within it, so a cell worker
	// touches only its own block and a receiver span (ascending ids of
	// one cell) walks memory forward. Everything that draws randomness
	// or schedules events still runs in device-id order below.
	m := &swarmTables{
		devs:   make([]swarmDev, n),
		slot:   make([]int32, n),
		pts:    pts,
		cellOf: cix.CellOwners(),
		se:     se,
		full:   uint64(1)<<uint(cfg.Rumors) - 1,
	}
	cellOf := m.cellOf
	for c, i := 0, 0; c < len(cellRects); c++ {
		for _, d := range cix.Devices(c) {
			m.slot[d] = int32(i)
			i++
		}
	}
	anchors := 0
	for d := 0; d < n; d++ {
		s := m.dev(d)
		s.class, s.heardAllAt = classOf[d], -1
		if d%anchorEvery == 0 {
			s.anchor = true
			s.est = pts[d]
			s.conf = 1
			anchors++
		} else {
			s.est = geo.Point{X: layout.Float64() * cfg.FieldM, Y: layout.Float64() * cfg.FieldM}
		}
	}
	// Devices are built in the same cell-major order, so each cell's
	// device structs are allocated together too. Each engine still
	// sees its own devices' tickers scheduled in ascending id order.
	for c := 0; c < len(cellRects); c++ {
		eng := se.Cell(c).Engine()
		for _, d := range cix.Devices(c) {
			s := m.dev(d)
			s.dev = device.New(eng, d, cfg.Mix[s.class].Cfg, nil)
		}
	}
	for r := 0; r < cfg.Rumors; r++ {
		m.dev(r * n / cfg.Rumors).rumors |= 1 << uint(r)
	}

	locErrStart := m.meanLocErr()

	// Mission loops. Per-iteration jitter draws from the owning cell's
	// engine RNG: within a cell events execute in one deterministic
	// order, so the draws are reproducible at any worker count.
	for d := 0; d < n; d++ {
		d := d
		s := m.dev(d)
		cls := cfg.Mix[s.class]
		cell := se.Cell(cellOf[d])
		eng := cell.Engine()
		injector := inj[cellOf[d]]

		var beacon func()
		beacon = func() {
			if s.dev.Failed() {
				return
			}
			if cfg.FailProb > 0 && injector.Fault("beacon-death") != nil {
				s.dev.Fail()
				return
			}
			// Snapshot everything the receivers need by value: deliver
			// callbacks run later, on other cells.
			b := beaconSnap{est: s.est, conf: s.conf, rumors: s.rumors, payload: cls.BeaconMB}
			s.dev.Transmit(b.payload)
			radio.Broadcast(d, func(dst int) { m.deliver(d, dst, b) })
			eng.Defer(cls.BeaconPeriodS*(0.9+0.2*eng.Rand().Float64()), beacon)
		}
		eng.DeferAt(layout.Float64()*cls.BeaconPeriodS, beacon)

		if !s.anchor {
			var solve func()
			solve = func() {
				if s.dev.Failed() {
					return
				}
				s.solve(cls.SolveIters)
				eng.Defer(cls.SolvePeriodS*(0.9+0.2*eng.Rand().Float64()), solve)
			}
			eng.DeferAt(cls.BeaconPeriodS+layout.Float64()*cls.SolvePeriodS, solve)
		}
	}

	se.Run(cfg.DurationS)

	// Aggregate in device-id order — deterministic by construction.
	res := SwarmResult{
		Devices: n, Cells: len(cellRects), Anchors: anchors,
		LocErrStartM:  locErrStart,
		Radio:         radio.Stats(),
		Windows:       se.Windows(),
		CrossMessages: se.CrossMessages(),
		Steps:         se.Steps(),
	}
	var spread []float64
	errSample := &stats.Sample{}
	perClass := make([]ClassStats, len(cfg.Mix))
	perClassErr := make([]*stats.Sample, len(cfg.Mix))
	for i, cl := range cfg.Mix {
		perClass[i].Name = cl.Name
		perClassErr[i] = &stats.Sample{}
	}
	covered := 0
	for d := 0; d < n; d++ {
		s := m.dev(d)
		s.dev.Settle()
		c := &perClass[s.class]
		c.Count++
		c.BatteryMeanFrac += s.dev.Battery.ConsumedFraction()
		if s.dev.Failed() {
			res.Failed++
			c.Failed++
		}
		if s.rumors == m.full {
			covered++
			c.CoveredFrac++
			if s.heardAllAt >= 0 {
				spread = append(spread, s.heardAllAt)
			}
		}
		if !s.anchor {
			e := s.est.Dist(pts[d])
			errSample.Add(e)
			perClassErr[s.class].Add(e)
		}
	}
	res.CoveredFrac = float64(covered) / float64(n)
	for i := range perClass {
		c := &perClass[i]
		if c.Count > 0 {
			c.CoveredFrac /= float64(c.Count)
			c.BatteryMeanFrac /= float64(c.Count)
		}
		if perClassErr[i].N() > 0 {
			c.LocErrMeanM = perClassErr[i].Mean()
		}
	}
	res.Classes = perClass
	if errSample.N() > 0 {
		res.LocErrMeanM = errSample.Mean()
		res.LocErrP95M = errSample.Percentile(95)
	}
	if len(spread) > 0 {
		sort.Float64s(spread)
		res.SpreadP50S = spread[len(spread)/2]
		res.SpreadP99S = spread[(len(spread)*99)/100]
	}
	return res, se, nil
}

// swarmTables is the mission's shared state, hoisted into one struct
// so each per-broadcast deliver closure captures a single pointer
// instead of every table it reads.
type swarmTables struct {
	devs   []swarmDev // cell-major; index through slot
	slot   []int32    // device id → index into devs
	pts    []geo.Point
	cellOf []int
	se     *sim.ShardedEngine
	full   uint64 // rumor mask with every rumor heard
}

// dev returns device d's mission state.
func (m *swarmTables) dev(d int) *swarmDev { return &m.devs[m.slot[d]] }

// beaconSnap is what a beacon carries, snapshotted by value at send
// time: receivers read it later, on other cells.
type beaconSnap struct {
	est     geo.Point
	conf    float64
	rumors  uint64
	payload float64
}

// deliver applies src's beacon b at receiver dst. It runs on dst's
// owning cell, which owns dst's state.
func (m *swarmTables) deliver(src, dst int, b beaconSnap) {
	r := m.dev(dst)
	if r.dev.Failed() {
		return
	}
	r.dev.Receive(b.payload)
	if old := r.rumors; old != m.full {
		r.rumors |= b.rumors
		if r.rumors == m.full {
			r.heardAllAt = m.se.Cell(m.cellOf[dst]).Engine().Now()
		}
	}
	if b.conf > 0 {
		rEng := m.se.Cell(m.cellOf[dst]).Engine()
		noisy := m.pts[src].Dist(m.pts[dst]) * (1 + 0.02*rEng.Rand().NormFloat64())
		r.pushObs(obs{est: b.est, conf: b.conf, dist: noisy})
	}
}

// meanLocErr averages non-anchor position error over the fleet, in
// device-id order.
func (m *swarmTables) meanLocErr() float64 {
	sum, n := 0.0, 0
	for d := range m.slot {
		s := m.dev(d)
		if s.anchor {
			continue
		}
		sum += s.est.Dist(m.pts[d])
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
