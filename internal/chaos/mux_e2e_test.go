package chaos_test

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hivemind/internal/chaos"
	"hivemind/internal/controller"
	"hivemind/internal/rpc"
	"hivemind/internal/runtime"
	"hivemind/internal/store"
)

// TestFailoverE2EMuxedStreamsAcrossPrimaryKill runs the §4.7 failover
// acceptance over the multiplexed transport: one TCP connection to the
// primary carries many logical streams. The doomed chain call rides one
// stream and is held hostage mid-tier; sibling streams on the same
// connection must keep completing their own chains (no head-of-line
// coupling through the shared socket or the bounded worker pool). The
// chaos kill then takes the primary down — every stream on the shared
// connection fails with the connection's teardown error, and the
// hostage task completes through the standby's orphan re-dispatch with
// exactly-once step effects.
func TestFailoverE2EMuxedStreamsAcrossPrimaryKill(t *testing.T) {
	mon := controller.NewMonitor()
	inj := chaos.NewInjector(1123, chaos.Config{})
	db := store.NewDB()
	midEntered := make(chan struct{}, 1)
	chain, fns := blockingMid(midEntered)
	var denyRecover atomic.Int64
	denyRecover.Store(-1)
	nodes := startFailoverCluster(t, 3, 1123, mon, inj, db, chain, fns, &denyRecover)
	primary := waitPrimary(t, nodes, 3*time.Second)

	conn, err := net.Dial("tcp", primary.gwAddr)
	if err != nil {
		t.Fatal(err)
	}
	cl := rpc.NewClient(conn, 16)
	defer cl.Close()

	// The doomed chain rides its own logical stream.
	doomed := cl.Stream(2)
	callDone := make(chan error, 1)
	go func() {
		_, cerr := doomed.Call(context.Background(), "pipeline",
			runtime.EncodeTask("task-mux-e2e", []byte("x")))
		callDone <- cerr
	}()
	select {
	case <-midEntered:
	case <-time.After(5 * time.Second):
		t.Fatal("chain never reached the mid tier")
	}

	// Sibling streams on the SAME connection complete their own chains
	// while the doomed stream's call is held hostage: per-stream
	// dispatch means the hostage occupies one worker, not the socket.
	const siblings = 4
	var wg sync.WaitGroup
	for i := 0; i < siblings; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := cl.Stream(2)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			out, serr := s.Call(ctx, "pipeline", nil)
			if serr != nil {
				t.Errorf("sibling stream blocked behind hostage call: %v", serr)
				return
			}
			if string(out) != ".h.m.t" {
				t.Errorf("sibling chain output = %q, want .h.m.t", out)
			}
		}()
	}
	wg.Wait()
	select {
	case cerr := <-callDone:
		t.Fatalf("hostage call finished before the kill: %v", cerr)
	default:
	}

	// Kill the primary. The shared connection dies; the doomed stream's
	// in-flight call must surface the teardown, not hang.
	killAt := time.Now()
	denyRecover.Store(int64(primary.id))
	inj.At(controller.KillControllerOp(primary.id), 0)

	select {
	case cerr := <-callDone:
		if cerr == nil {
			t.Fatal("call to the killed primary reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("muxed stream call never failed after the primary died")
	}
	// Post-teardown, every stream on the connection is dead with
	// ErrClosed semantics — new calls fail fast instead of queueing.
	if _, serr := cl.Stream(1).CallSync("pipeline", nil); serr == nil {
		t.Fatal("new stream on dead connection succeeded")
	}

	// The hostage chain completes through the standby's Recover.
	log := store.NewCheckpointLog(db)
	deadline := time.Now().Add(5 * time.Second)
	for {
		orphans, oerr := log.Orphans()
		if oerr == nil && len(orphans) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("orphan task never completed; remaining: %v", orphans)
		}
		time.Sleep(10 * time.Millisecond)
	}
	completedIn := time.Since(killAt)

	want := []string{"x.h", "x.h.m", "x.h.m.t"}
	for step := 0; step < 3; step++ {
		doc, gerr := db.Get(store.StepOutputKey("task-mux-e2e", step))
		if gerr != nil {
			t.Fatalf("step %d output missing: %v", step, gerr)
		}
		if g := store.RevGen(doc.Rev); g != 1 {
			t.Fatalf("step %d committed %d times, want exactly once", step, g)
		}
		if string(doc.Body) != want[step] {
			t.Fatalf("step %d output = %q, want %q", step, doc.Body, want[step])
		}
	}
	if fo := controller.FailoverOf(mon); fo.Failovers < 1 {
		t.Fatalf("failovers = %d, want >= 1", fo.Failovers)
	}
	cfg := fastCtrlConfig(0, 3, 0)
	bound := (2*cfg.ElectionTimeoutMax + 4*cfg.VoteTimeout + gwRespawnDelay).Seconds() + 2.0
	if completedIn.Seconds() > bound {
		t.Fatalf("orphan completed in %v, want under %.1fs", completedIn, bound)
	}
}
