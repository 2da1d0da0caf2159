package netsim

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"hivemind/internal/geo"
	"hivemind/internal/sim"
)

// randomLayout scatters n devices with mixed radio ranges (long-range
// drones down to short-range tiny robots).
func randomLayout(n int, fieldM float64, seed int64) ([]geo.Point, []float64) {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geo.Point, n)
	ranges := make([]float64, n)
	for i := range pts {
		pts[i] = geo.Point{X: rng.Float64() * fieldM, Y: rng.Float64() * fieldM}
		switch i % 10 {
		case 0:
			ranges[i] = 60 // drone
		case 1, 2, 3:
			ranges[i] = 35 // rover
		default:
			ranges[i] = 12 // tiny robot
		}
	}
	return pts, ranges
}

// TestNeighborIndexMatchesNaive: the binned build must produce exactly
// the sets the all-pairs scan produces, for mixed asymmetric ranges —
// the default three-class mix, a mix with a zero-range device (which
// must not set the grid side), and one with a sub-metre range (which
// must not blow the grid up).
func TestNeighborIndexMatchesNaive(t *testing.T) {
	mixes := []struct {
		name   string
		ranges []float64 // cycled over the devices; nil keeps randomLayout's mix
	}{
		{"drone-rover-tiny", nil},
		{"with-zero", []float64{60, 12, 0}},
		{"with-tiny", []float64{35, 0.25, 0}},
	}
	for _, mix := range mixes {
		for _, n := range []int{1, 17, 400} {
			pts, ranges := randomLayout(n, 300, int64(n))
			if mix.ranges != nil {
				for i := range ranges {
					ranges[i] = mix.ranges[i%len(mix.ranges)]
				}
			}
			ix := BuildNeighborIndex(pts, ranges)
			naive := buildNeighborsNaive(pts, ranges)
			for d := 0; d < n; d++ {
				got, want := ix.Neighbors(d), naive[d]
				if len(got) == 0 && len(want) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s n=%d device %d: indexed %v != naive %v", mix.name, n, d, got, want)
				}
			}
		}
	}
}

// TestNeighborQueryAllocFree: the range query the broadcast hot path
// performs per transmission must not allocate — that is the point of
// replacing the per-transmission scan with the prebuilt index.
func TestNeighborQueryAllocFree(t *testing.T) {
	pts, ranges := randomLayout(500, 300, 7)
	ix := BuildNeighborIndex(pts, ranges)
	sink := 0
	allocs := testing.AllocsPerRun(1000, func() {
		for d := 0; d < 500; d++ {
			sink += len(ix.Neighbors(d))
		}
	})
	if allocs != 0 {
		t.Fatalf("Neighbors allocated %.1f per run, want 0", allocs)
	}
	_ = sink
}

// TestNeighborIndexBeatsNaiveScan: the ns ceiling for the index build.
// The binned build must beat the O(all-devices²) scan by a wide margin
// at mega-swarm densities; the margin is asserted loosely (3×) so CI
// noise cannot flake it, and skipped under the race detector where
// instrumentation distorts both sides.
func TestNeighborIndexBeatsNaiveScan(t *testing.T) {
	if raceEnabled {
		t.Skip("timing assertion not meaningful under -race")
	}
	if testing.Short() {
		t.Skip("timing comparison skipped in -short")
	}
	pts, ranges := randomLayout(8000, 1400, 11)
	timeIt := func(f func()) time.Duration {
		start := time.Now()
		f()
		return time.Since(start)
	}
	// Warm once to populate caches, then measure.
	BuildNeighborIndex(pts, ranges)
	indexed := timeIt(func() { BuildNeighborIndex(pts, ranges) })
	naive := timeIt(func() { buildNeighborsNaive(pts, ranges) })
	if naive < 3*indexed {
		t.Fatalf("indexed build %v not ≥3× faster than naive %v", indexed, naive)
	}
}

// buildRadio wires a 2×2-cell sharded world with a deterministic
// layout.
func buildRadio(t *testing.T, workers int, latency float64) (*sim.ShardedEngine, *Radio, *geo.CellIndex, []geo.Point) {
	t.Helper()
	pts, ranges := randomLayout(200, 120, 3)
	cells := geo.Partition(geo.NewField(120, 120), 4)
	cix := geo.BuildCellIndex(cells, pts)
	se, err := sim.NewSharded(3, len(cells), 0.004, workers)
	if err != nil {
		t.Fatal(err)
	}
	ix := BuildNeighborIndex(pts, ranges)
	radio, err := NewRadio(se, ix, cix.CellOwners(), latency)
	if err != nil {
		t.Fatal(err)
	}
	return se, radio, cix, pts
}

// TestRadioLatencyBelowLookaheadRejected: a medium faster than the
// declared lookahead would break the conservative windows.
func TestRadioLatencyBelowLookaheadRejected(t *testing.T) {
	pts, ranges := randomLayout(10, 50, 1)
	cells := geo.Partition(geo.NewField(50, 50), 2)
	cix := geo.BuildCellIndex(cells, pts)
	se, err := sim.NewSharded(1, 2, 0.004, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewRadio(se, BuildNeighborIndex(pts, ranges), cix.CellOwners(), 0.001)
	if err == nil {
		t.Fatal("expected error for latency < lookahead")
	}
	var le *sim.LookaheadError
	if !errors.As(err, &le) {
		t.Fatalf("error %v is not a *sim.LookaheadError", err)
	}
}

// TestRadioBroadcastDelivers: every neighbour — same cell or not —
// receives exactly one delivery at send time + latency.
func TestRadioBroadcastDelivers(t *testing.T) {
	const latency = 0.004
	se, radio, cix, _ := buildRadio(t, 2, latency)
	src := 0
	want := radio.Neighbors(src)
	if len(want) == 0 {
		t.Fatal("source has no neighbours; layout too sparse for the test")
	}
	// deliver runs on the receiver's cell worker, and cells run
	// concurrently: each cell records into its own slot, merged after
	// the run.
	type record struct {
		got map[int]int
		at  []float64
	}
	perCell := make([]record, se.Cells())
	for c := range perCell {
		perCell[c].got = map[int]int{}
	}
	srcCell := se.Cell(cix.CellOf(src))
	srcCell.Engine().DeferAt(1.0, func() {
		radio.Broadcast(src, func(dst int) {
			c := cix.CellOf(dst)
			perCell[c].got[dst]++
			perCell[c].at = append(perCell[c].at, se.Cell(c).Engine().Now())
		})
	})
	se.Run(2)
	got := map[int]int{}
	var at []float64
	for _, rec := range perCell {
		for dst, k := range rec.got {
			got[dst] += k
		}
		at = append(at, rec.at...)
	}
	if len(got) != len(want) {
		t.Fatalf("delivered to %d receivers, want %d", len(got), len(want))
	}
	for _, n := range want {
		if got[int(n)] != 1 {
			t.Fatalf("neighbour %d received %d deliveries, want 1", n, got[int(n)])
		}
	}
	for _, ts := range at {
		if ts != 1.0+latency {
			t.Fatalf("delivery at %g, want %g", ts, 1.0+latency)
		}
	}
	st := radio.Stats()
	if st.Broadcasts != 1 || st.Deliveries != uint64(len(want)) {
		t.Fatalf("stats %+v inconsistent with one broadcast to %d receivers", st, len(want))
	}
}

// TestRadioReceiverSpans: each sender's precomputed receiver spans
// partition its neighbour set by owning cell, in the order the medium
// delivers — ascending cells, ascending ids inside a cell, no empty
// span — and a broadcast storm counts exactly one delivery per
// neighbour per broadcast.
func TestRadioReceiverSpans(t *testing.T) {
	se, radio, cix, _ := buildRadio(t, 2, 0.004)
	multiCell := 0
	for d := range radio.cellOf {
		spans := radio.spans[radio.spanOff[d]:radio.spanOff[d+1]]
		if len(spans) > 1 {
			multiCell++
		}
		var all []int32
		for i, sp := range spans {
			if sp.hi <= sp.lo {
				t.Fatalf("device %d: span %d is empty", d, i)
			}
			if i > 0 && sp.cell <= spans[i-1].cell {
				t.Fatalf("device %d: span cells %d then %d, want ascending", d, spans[i-1].cell, sp.cell)
			}
			rcv := radio.rcv[sp.lo:sp.hi]
			for j, n := range rcv {
				if j > 0 && n <= rcv[j-1] {
					t.Fatalf("device %d: span for cell %d not ascending: %v", d, sp.cell, rcv)
				}
				if cix.CellOf(int(n)) != int(sp.cell) {
					t.Fatalf("device %d: receiver %d in span for cell %d is owned by cell %d",
						d, n, sp.cell, cix.CellOf(int(n)))
				}
			}
			all = append(all, rcv...)
		}
		slices.Sort(all)
		if want := radio.Neighbors(d); !slices.Equal(all, want) {
			t.Fatalf("device %d: spans hold %v, neighbours are %v", d, all, want)
		}
	}
	if multiCell == 0 {
		t.Fatal("no sender reaches more than one cell; layout does not exercise grouping")
	}

	var wantDeliveries uint64
	for d := range radio.cellOf {
		d := d
		eng := se.Cell(cix.CellOf(d)).Engine()
		for k := 0; k < 3; k++ {
			wantDeliveries += uint64(len(radio.Neighbors(d)))
			eng.DeferAt(float64(k)*0.1+float64(d%7)*0.001, func() {
				radio.Broadcast(d, func(int) {})
			})
		}
	}
	se.Run(1)
	st := radio.Stats()
	if st.Broadcasts != 3*uint64(len(radio.cellOf)) || st.Deliveries != wantDeliveries {
		t.Fatalf("stats %+v, want %d broadcasts and %d deliveries",
			st, 3*len(radio.cellOf), wantDeliveries)
	}
}

// TestRadioParityAcrossWorkers: a gossip storm over the sharded radio
// must deliver identically at any worker count.
func TestRadioParityAcrossWorkers(t *testing.T) {
	run := func(workers int) ([]uint64, RadioStats) {
		se, radio, cix, _ := buildRadio(t, workers, 0.004)
		heard := make([]uint64, 200)
		for d := 0; d < 200; d++ {
			d := d
			cell := se.Cell(cix.CellOf(d))
			var loop func()
			loop = func() {
				radio.Broadcast(d, func(dst int) { heard[dst]++ })
				cell.Engine().Defer(0.05+cell.Engine().Rand().Float64()*0.01, loop)
			}
			cell.Engine().DeferAt(float64(d%7)*0.001, loop)
		}
		se.Run(1)
		return heard, radio.Stats()
	}
	baseHeard, baseStats := run(1)
	if baseStats.Deliveries == 0 || baseStats.CrossEvents == 0 {
		t.Fatalf("storm produced no cross-cell traffic: %+v", baseStats)
	}
	for _, w := range []int{2, 8} {
		heard, st := run(w)
		if !reflect.DeepEqual(heard, baseHeard) {
			t.Fatalf("workers=%d: delivery counts diverged", w)
		}
		if st != baseStats {
			t.Fatalf("workers=%d: stats %+v != %+v", w, st, baseStats)
		}
	}
}

// BenchmarkNeighborBuild records what the binned index buys over the
// per-transmission all-devices scan at 10⁴-device scale (the numbers
// land in BENCH_sim.json via make bench-sim).
func BenchmarkNeighborBuild(b *testing.B) {
	pts, ranges := randomLayout(10000, 1000, 5)
	b.Run("indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			BuildNeighborIndex(pts, ranges)
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buildNeighborsNaive(pts, ranges)
		}
	})
}
