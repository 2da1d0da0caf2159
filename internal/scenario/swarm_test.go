package scenario

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"hivemind/internal/netsim"
	"hivemind/internal/sim"
)

// swarmTestConfig is a mid-size mission with real cross-cell traffic
// and injected deaths — small enough for CI, big enough that every
// mechanism (gossip, localization hops, chaos, windows) engages.
func swarmTestConfig() SwarmConfig {
	return SwarmConfig{
		Devices:   300,
		FieldM:    170,
		Cells:     6,
		Seed:      42,
		DurationS: 8,
		FailProb:  0.01,
	}
}

// TestSwarmParityAcrossShards is the tentpole guarantee: the Shards
// knob must not change one bit of the result — including the chaos
// deaths, the RNG-jittered beacon times, the noisy range observations
// and the executive's own window accounting.
func TestSwarmParityAcrossShards(t *testing.T) {
	cfg := swarmTestConfig()
	cfg.Shards = 1
	base, err := RunSwarm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.Failed == 0 {
		t.Fatal("no injected deaths; chaos-under-sharding not exercised")
	}
	if base.Radio.CrossEvents == 0 {
		t.Fatal("no cross-cell traffic; parity test vacuous")
	}
	if base.CoveredFrac == 0 {
		t.Fatal("gossip never spread")
	}
	for _, w := range []int{2, 8} {
		cfg.Shards = w
		got, err := RunSwarm(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("shards=%d diverged from shards=1:\n got: %+v\nwant: %+v", w, got, base)
		}
	}
}

// TestSwarmGoldenResult pins RunSwarm(swarmTestConfig()) to a recorded
// result, so a change to the simulator's data layout or hot path
// cannot move a single output bit unnoticed: counts compare exactly,
// floats bit for bit.
func TestSwarmGoldenResult(t *testing.T) {
	got, err := RunSwarm(swarmTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	type counts struct {
		Devices, Cells, Anchors, Failed int
		Radio                           netsim.RadioStats
		Windows, CrossMessages, Steps   uint64
		Classes                         [3][3]any // name, count, failed
	}
	wantCounts := counts{
		Devices: 300, Cells: 6, Anchors: 15, Failed: 21,
		Radio:   netsim.RadioStats{Broadcasts: 1782, Deliveries: 55057, CrossEvents: 1795},
		Windows: 1237, CrossMessages: 1795, Steps: 7727,
		Classes: [3][3]any{{"drone", 21, 3}, {"rover", 108, 11}, {"tinybot", 171, 7}},
	}
	if len(got.Classes) != 3 {
		t.Fatalf("%d classes, want 3", len(got.Classes))
	}
	gotCounts := counts{
		Devices: got.Devices, Cells: got.Cells, Anchors: got.Anchors, Failed: got.Failed,
		Radio: got.Radio, Windows: got.Windows, CrossMessages: got.CrossMessages, Steps: got.Steps,
	}
	for i, c := range got.Classes {
		gotCounts.Classes[i] = [3]any{c.Name, c.Count, c.Failed}
	}
	if gotCounts != wantCounts {
		t.Fatalf("counts diverged from the recorded result:\n got: %+v\nwant: %+v", gotCounts, wantCounts)
	}

	// Bit-exact floats are pinned on amd64 only: on other architectures
	// Go may fuse a multiply and an add into one FMA instruction, which
	// rounds once instead of twice and legitimately moves low bits.
	if runtime.GOARCH != "amd64" {
		t.Skipf("float bits pinned on amd64 only, not %s", runtime.GOARCH)
	}
	floats := []struct {
		name string
		got  float64
		want uint64
	}{
		{"CoveredFrac", got.CoveredFrac, 0x3fef40da740da741},
		{"SpreadP50S", got.SpreadP50S, 0x40000db09b95f62f},
		{"SpreadP99S", got.SpreadP99S, 0x4004dd68663faf73},
		{"LocErrStartM", got.LocErrStartM, 0x40579e2fc4538aa6},
		{"LocErrMeanM", got.LocErrMeanM, 0x40482bdba55405ee},
		{"LocErrP95M", got.LocErrP95M, 0x405632a8b30f314a},
		{"drone.CoveredFrac", got.Classes[0].CoveredFrac, 0x3fee79e79e79e79e},
		{"drone.LocErrMeanM", got.Classes[0].LocErrMeanM, 0x4042a8cb50b3226c},
		{"drone.BatteryMeanFrac", got.Classes[0].BatteryMeanFrac, 0x3f573a700e511e79},
		{"rover.CoveredFrac", got.Classes[1].CoveredFrac, 0x3fee84bda12f684c},
		{"rover.LocErrMeanM", got.Classes[1].LocErrMeanM, 0x40452d1ed8d1f267},
		{"rover.BatteryMeanFrac", got.Classes[1].BatteryMeanFrac, 0x3f3594a24d1c015f},
		{"tinybot.CoveredFrac", got.Classes[2].CoveredFrac, 0x3fefd017f405fd01},
		{"tinybot.LocErrMeanM", got.Classes[2].LocErrMeanM, 0x404a9bded22bb6bd},
		{"tinybot.BatteryMeanFrac", got.Classes[2].BatteryMeanFrac, 0x3f777aba4eba3bb5},
	}
	for _, f := range floats {
		if bits := math.Float64bits(f.got); bits != f.want {
			t.Errorf("%s = %v (%#016x), want %v (%#016x)",
				f.name, f.got, bits, math.Float64frombits(f.want), f.want)
		}
	}
}

// TestSwarmLocalizationConverges: confidence-weighted solving against
// anchor-rooted observations must beat the random initial estimates by
// a wide margin.
func TestSwarmLocalizationConverges(t *testing.T) {
	cfg := swarmTestConfig()
	cfg.FailProb = 0
	cfg.DurationS = 15
	res, err := RunSwarm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.LocErrStartM <= 0 {
		t.Fatal("no initial error recorded")
	}
	if res.LocErrMeanM >= 0.7*res.LocErrStartM {
		t.Fatalf("localization did not converge: %.1fm start → %.1fm end", res.LocErrStartM, res.LocErrMeanM)
	}
	// Confidence reached the short-range majority: tiny robots only hear
	// nearby peers, so their error can only drop via multi-hop anchors.
	for _, c := range res.Classes {
		if c.Name == "tinybot" && c.LocErrMeanM >= res.LocErrStartM {
			t.Fatalf("tinybot class never localized: %.1fm", c.LocErrMeanM)
		}
	}
}

// TestSwarmRumorCoverage: with no deaths and enough time, gossip
// reaches (nearly) the whole connected fleet and the spread percentiles
// are ordered.
func TestSwarmRumorCoverage(t *testing.T) {
	cfg := swarmTestConfig()
	cfg.FailProb = 0
	cfg.DurationS = 20
	res, err := RunSwarm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CoveredFrac < 0.8 {
		t.Fatalf("only %.0f%% of the fleet heard every rumor", res.CoveredFrac*100)
	}
	if res.SpreadP50S <= 0 || res.SpreadP99S < res.SpreadP50S {
		t.Fatalf("spread percentiles inconsistent: p50=%g p99=%g", res.SpreadP50S, res.SpreadP99S)
	}
}

// TestSwarmConfigErrors: misconfigured windows surface the executive's
// typed error; oversized rumor sets are rejected.
func TestSwarmConfigErrors(t *testing.T) {
	cfg := swarmTestConfig()
	cfg.RadioLatencyS = 0.002
	cfg.LookaheadS = 0.004
	_, err := RunSwarm(cfg)
	var le *sim.LookaheadError
	if !errors.As(err, &le) {
		t.Fatalf("lookahead > latency: got %v, want *sim.LookaheadError", err)
	}

	cfg = swarmTestConfig()
	cfg.LookaheadS = -1
	_, err = RunSwarm(cfg)
	if !errors.As(err, &le) {
		t.Fatalf("negative lookahead: got %v, want *sim.LookaheadError", err)
	}

	cfg = swarmTestConfig()
	cfg.Rumors = 65
	if _, err := RunSwarm(cfg); err == nil {
		t.Fatal("65 rumors accepted; gossip mask is 64-bit")
	}
}
