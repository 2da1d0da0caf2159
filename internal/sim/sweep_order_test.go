package sim_test

import (
	"reflect"
	"testing"

	"hivemind/internal/scenario"
	"hivemind/internal/sim"
)

// TestSwarmParityUnderSweepOrder: the mega-swarm mission must come out
// identical however each window's sweep orders its cells — one worker
// walking a shuffled order, or several racing through one. The config
// is the scenario package's swarmTestConfig: cross-cell traffic,
// gossip, localization and injected deaths all engage.
func TestSwarmParityUnderSweepOrder(t *testing.T) {
	cfg := scenario.SwarmConfig{Devices: 300, FieldM: 170, Cells: 6, Seed: 42, DurationS: 8, FailProb: 0.01, Shards: 1}
	base, err := scenario.RunSwarm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 5; seed++ {
		cfg.Shards = 1 + int(seed%2)
		restore := sim.ShuffleSweeps(seed)
		got, err := scenario.RunSwarm(cfg)
		restore()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("sweep order %d (shards=%d) diverged:\n got: %+v\nwant: %+v", seed, cfg.Shards, got, base)
		}
	}
}
