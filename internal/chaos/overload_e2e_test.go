package chaos_test

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hivemind/internal/chaos"
	"hivemind/internal/controller"
	"hivemind/internal/metrics"
	"hivemind/internal/rpc"
	"hivemind/internal/runtime"
	"hivemind/internal/stats"
	"hivemind/internal/store"
)

// This file is the overload acceptance suite: a replica set whose
// gateways run behind the admission front door, driven open-loop at 2×
// sustained capacity with a chaos-scheduled primary kill mid-run. The
// §3.2 queueing model predicts uncontrolled overload collapses into a
// timeout storm; the controlled gateway must instead hold goodput near
// saturation, keep admitted-request p99 inside the SLO, shed the rest
// cheaply, and never burn a worker executing a request whose deadline
// already expired.

// overNode is one controller+gateway process with its own metrics
// registry (so per-node counters survive the node's death).
type overNode struct {
	id      int
	replica *controller.Replica
	rt      *runtime.Runtime
	gw      *runtime.Gateway
	gwAddr  string
	reg     *metrics.Registry
}

// expiredGrace separates scheduling jitter from a real
// executed-expired-work bug: a function entered within this much of
// its deadline passing is a benign race; later than this is work the
// drop layers should have refused.
const expiredGrace = 10 * time.Millisecond

// startOverloadCluster boots n replicas whose gateways expose a
// fixed-cost "work" function behind the admission controller. Each
// node's function counts ctx-already-expired entries into that node's
// registry under "expired-executed".
func startOverloadCluster(t *testing.T, n int, seed int64, mon *controller.Monitor,
	inj *chaos.Injector, maxConc int, exec time.Duration) []*overNode {
	t.Helper()
	db := store.NewDB()
	ctrlLns := make([]net.Listener, n)
	ctrlAddrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ctrlLns[i] = ln
		ctrlAddrs[i] = ln.Addr().String()
	}
	nodes := make([]*overNode, n)
	for i := 0; i < n; i++ {
		reg := metrics.NewRegistry()
		rcfg := runtime.DefaultConfig()
		rcfg.Retries = 0
		rcfg.MaxInFlight = maxConc // the backend's true finite capacity
		rt := runtime.New(rcfg, db)
		nodeReg := reg
		rt.Register("work", func(ctx context.Context, in []byte) ([]byte, error) {
			if d, ok := ctx.Deadline(); ok && time.Since(d) > expiredGrace {
				nodeReg.CountEvent("expired-executed")
			}
			select {
			case <-time.After(exec):
				return in, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		})

		ccfg := fastCtrlConfig(i, n, seed)
		ccfg.Fault = inj
		peers := make(map[int]func() (net.Conn, error), n-1)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			addr := ctrlAddrs[j]
			peers[j] = func() (net.Conn, error) { return net.Dial("tcp", addr) }
		}
		rep := controller.NewReplica(ccfg, peers, mon)

		gcfg := runtime.DefaultGatewayConfig()
		gcfg.StepRespawns = 0
		gcfg.Overload = &runtime.AdmissionConfig{
			MaxConcurrent: maxConc,
			QueueLen:      2 * maxConc,
			RetryAfter:    25 * time.Millisecond,
		}
		g := runtime.NewGatewayConfig(rt, gcfg)
		g.SetMonitor(reg)
		g.Expose("work", "work")

		gln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go g.Server().Serve(gln)
		go rep.Server().Serve(ctrlLns[i])
		go func() {
			for rep.State() != controller.Dead {
				time.Sleep(2 * time.Millisecond)
			}
			g.Close()
		}()
		nodes[i] = &overNode{id: i, replica: rep, rt: rt, gw: g, gwAddr: gln.Addr().String(), reg: reg}
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.replica.Kill()
			nd.gw.Close()
			nd.rt.Close()
		}
	})
	for _, nd := range nodes {
		nd.replica.Start()
	}
	return nodes
}

func waitOverPrimary(t *testing.T, nodes []*overNode, timeout time.Duration) *overNode {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for _, nd := range nodes {
			if nd.replica.State() == controller.Leader {
				return nd
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no primary elected")
	return nil
}

// Acceptance: 2× sustained capacity, primary killed mid-run. Goodput
// stays at >= 80% of the measured saturation capacity, admitted p99
// holds the SLO, load is shed (not timed out), no node executes
// deadline-expired work, and the fleet still fails over.
func TestOverloadE2EGoodputHoldsAtTwiceCapacityWithPrimaryKill(t *testing.T) {
	const (
		replicas    = 3
		maxConc     = 8
		exec        = 8 * time.Millisecond
		reqDeadline = 800 * time.Millisecond
		slo         = 250 * time.Millisecond
		runFor      = 4 * time.Second
	)
	mon := controller.NewMonitor()
	inj := chaos.NewInjector(99, chaos.Config{})
	nodes := startOverloadCluster(t, replicas, 99, mon, inj, maxConc, exec)
	primary := waitOverPrimary(t, nodes, 3*time.Second)

	// Route the client at the doomed primary first so the mid-run kill
	// disrupts live traffic; the sweep must carry it to a standby.
	addrs := []string{primary.gwAddr}
	for _, nd := range nodes {
		if nd != primary {
			addrs = append(addrs, nd.gwAddr)
		}
	}
	budget := rpc.NewRetryBudget(rpc.DefaultRetryBudgetRatio, 256)
	fc := rpc.DialFailover(addrs, rpc.FailoverOptions{
		Callers:      1024,
		Attempts:     12,
		RetryBackoff: 10 * time.Millisecond,
		CallTimeout:  2 * time.Second,
		Budget:       budget,
	})
	defer fc.Close()

	// Measure saturation goodput closed-loop: exactly maxConc
	// outstanding, no queueing, no shedding. This is the ceiling the
	// overloaded run is scored against.
	capacity := calibrateFailover(t, fc, maxConc)
	rate := 2 * capacity
	interval := time.Duration(float64(time.Second) / rate)

	var (
		ok, shed, timeout, errs atomic.Int64
		latMu                   sync.Mutex
		lat                     stats.Sample
		wg                      sync.WaitGroup
	)
	start := time.Now()
	end := start.Add(runFor)
	killed := false
	for i := 0; ; i++ {
		at := start.Add(time.Duration(i) * interval)
		if at.After(end) {
			break
		}
		if d := time.Until(at); d > 0 {
			time.Sleep(d)
		}
		if !killed && time.Since(start) >= runFor/2 {
			inj.At(controller.KillControllerOp(primary.id), 0)
			killed = true
		}
		wg.Add(1)
		go func(at time.Time) {
			defer wg.Done()
			ctx, cancel := context.WithDeadline(context.Background(), at.Add(reqDeadline))
			defer cancel()
			_, err := fc.Call(ctx, "work", []byte("x"))
			elapsed := time.Since(at) // from scheduled arrival: no omission
			switch {
			case err == nil:
				ok.Add(1)
				latMu.Lock()
				lat.Add(elapsed.Seconds())
				latMu.Unlock()
			case rpc.IsShed(err):
				shed.Add(1)
			case rpc.IsDeadlineExceeded(err):
				timeout.Add(1)
			default:
				errs.Add(1)
			}
		}(at)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	goodput := float64(ok.Load()) / elapsed
	latMu.Lock()
	p99 := time.Duration(lat.Percentile(99) * float64(time.Second))
	latMu.Unlock()
	t.Logf("capacity %.0f rps | offered %.0f rps | goodput %.0f rps | p99 %v | ok %d shed %d timeout %d err %d",
		capacity, rate, goodput, p99, ok.Load(), shed.Load(), timeout.Load(), errs.Load())

	if !killed {
		t.Fatal("kill was never scheduled")
	}
	if goodput < 0.8*capacity {
		t.Fatalf("goodput %.0f rps under overload+kill, want >= 80%% of %.0f rps capacity", goodput, capacity)
	}
	if p99 > slo {
		t.Fatalf("admitted p99 %v exceeds %v SLO", p99, slo)
	}
	if shed.Load() == 0 {
		t.Fatal("2x overload shed nothing: admission control inert")
	}
	// The tentpole invariant: no node executed deadline-expired work.
	for _, nd := range nodes {
		if n := nd.reg.Counter("expired-executed"); n != 0 {
			t.Fatalf("node %d executed %v deadline-expired requests", nd.id, n)
		}
	}
	waitFailover(t, mon, 5*time.Second)
}

// calibrateFailover measures closed-loop saturation goodput through the
// leader-following client.
func calibrateFailover(t *testing.T, fc *rpc.FailoverClient, workers int) float64 {
	t.Helper()
	const window = 700 * time.Millisecond
	var done atomic.Int64
	ctx, cancel := context.WithTimeout(context.Background(), window)
	defer cancel()
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				rctx, rcancel := context.WithTimeout(context.Background(), 5*time.Second)
				_, err := fc.Call(rctx, "work", []byte("x"))
				rcancel()
				if err == nil {
					done.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	capacity := float64(done.Load()) / time.Since(start).Seconds()
	if capacity <= 0 {
		t.Fatal("calibration produced no capacity")
	}
	return capacity
}

// waitFailover polls the monitor until a failover is recorded.
func waitFailover(t *testing.T, mon *controller.Monitor, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if controller.FailoverOf(mon).Failovers >= 1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("no failover recorded: %s", fmt.Sprint(controller.FailoverOf(mon)))
}
