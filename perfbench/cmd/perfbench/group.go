package main

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"hivemind/internal/ingress"
	"hivemind/internal/metrics"
	"hivemind/internal/rpc"
	"hivemind/internal/runtime"
	"hivemind/internal/store"
)

// jobs-group: three ingress+gateway members in one consistent-hash
// queue group, each dispatching over the Linker's shared-memory ring to
// an admission-controlled gateway whose one function sleeps a fixed
// time and echoes its input. The generator posts unique payloads with
// ?then=true to member 0, so about two thirds of jobs take the group's
// forwarding hop; nothing coalesces and nothing is written ahead.
const (
	groupMembers = 3
	groupWorkers = 32 // admission MaxConcurrent per gateway, as hivemind-loadgen sets it
	groupFnSleep = 1500 * time.Microsecond
)

type groupMember struct {
	rt     *runtime.Runtime
	gw     *runtime.Gateway
	linker *runtime.Linker
	ing    *ingress.Server
	reg    *metrics.Registry
	stop   func()
}

type groupStack struct {
	seed    int64
	members []*groupMember
	entry   string
	pool    *clientPool
	tr      *tracer
	timed   []*timedMonitor
}

// groupKey reads the request index a jobs-group payload starts with.
func groupKey(payload []byte) string {
	s := string(payload)
	if i := strings.IndexByte(s, '.'); i > 0 {
		return "o" + s[:i]
	}
	return ""
}

func bootGroup(seed int64, tr *tracer) (*groupStack, error) {
	s := &groupStack{seed: seed, tr: tr, members: make([]*groupMember, groupMembers)}
	urls := make([]string, groupMembers)
	handlers := make([]*lateHandler, groupMembers)
	for i := range s.members {
		handlers[i] = &lateHandler{}
		url, stop, err := serveHTTP(handlers[i])
		if err != nil {
			s.close()
			return nil, err
		}
		urls[i] = url
		s.members[i] = &groupMember{stop: stop}
	}
	for i, m := range s.members {
		rcfg := runtime.DefaultConfig()
		rcfg.Retries = 0
		rcfg.MaxInFlight = groupWorkers
		m.rt = runtime.New(rcfg, store.NewDB())
		m.rt.Register("work", traceFn(tr, func(ctx context.Context, in []byte) ([]byte, error) {
			t := time.NewTimer(groupFnSleep)
			defer t.Stop()
			select {
			case <-t.C:
				return in, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}))
		gcfg := runtime.DefaultGatewayConfig()
		gcfg.StepRespawns = 0
		gcfg.Overload = &runtime.AdmissionConfig{
			MaxConcurrent: groupWorkers,
			QueueLen:      2 * groupWorkers,
			RetryAfter:    50 * time.Millisecond,
		}
		m.gw = runtime.NewGatewayConfig(m.rt, gcfg)
		m.reg = metrics.NewRegistry()
		m.gw.SetMonitor(gatewayMonitor(m.reg, tr, &s.timed))
		m.gw.Expose("work", "work")
		if tr != nil {
			m.gw.Server().SetInterceptor(traceInterceptor(tr, groupKey))
		}
		// The ring's consumers must outnumber the admission lane, or
		// excess arrivals wait in ring slots instead of being shed.
		m.linker = runtime.NewLinker(runtime.LinkerOptions{
			Callers: 2048,
			Ring:    rpc.RingOptions{Slots: 4096, Consumers: 512},
		})
		link, err := m.linker.Connect(runtime.Peer{Gateway: m.gw})
		if err != nil {
			s.close()
			return nil, err
		}
		var d ingress.Dispatcher = link
		if tr != nil {
			d = tracedDispatcher{d: link, tr: tr, keyOf: groupKey}
		}
		members := make([]ingress.Member, groupMembers)
		for j := range members {
			peer := s.members[j]
			members[j] = ingress.Member{
				ID:   fmt.Sprintf("gw-%d", j),
				URL:  urls[j],
				Self: j == i,
				Depth: func() int {
					if peer.ing == nil {
						return 0
					}
					return peer.ing.Depth()
				},
			}
		}
		m.ing, err = ingress.NewServer(ingress.Options{
			Dispatcher: d,
			Monitor:    m.reg,
			Group:      ingress.NewQueueGroup(members, ingress.GroupOptions{SpillDepth: 2 * groupWorkers}),
			Timeout:    requestDeadline,
		})
		if err != nil {
			s.close()
			return nil, err
		}
		var h http.Handler = m.ing
		if tr != nil {
			h = traceHandler(tr, m.ing, groupKey)
		}
		handlers[i].set(h)
	}
	s.entry = urls[0] + "/do/work?then=true"
	s.pool = newClientPool(nproc())
	return s, nil
}

// event j is one request with a unique payload led by its index: every
// jobs-group event holds exactly one request, so event and request
// indices coincide.
func (s *groupStack) event(j int) (string, int) {
	return strconv.Itoa(j) + "." + strconv.FormatUint(mix(s.seed, uint64(j)), 16), 1
}

func (s *groupStack) send(ctx context.Context, o *op) outcome {
	status, _, body, err := s.pool.do(ctx, s.tr, o, http.MethodPost, s.entry, o.payload, "")
	if err != nil {
		return errOut
	}
	out := classify(status)
	if out == okOut && body != o.payload {
		return wrongOut
	}
	return out
}

func (s *groupStack) registries() []*metrics.Registry {
	regs := make([]*metrics.Registry, len(s.members))
	for i, m := range s.members {
		regs[i] = m.reg
	}
	return regs
}

func (s *groupStack) snapshot() counters {
	var c counters
	for _, m := range s.members {
		st := m.ing.Stats()
		c.posted += st.Posted
		c.coalesced += st.Coalesced
		c.dispatched += st.Dispatched
		c.forwarded += st.Forwarded
		c.spilled += st.Spilled
		a := m.gw.AdmissionStats()
		c.shed += a.ShedFull + a.ShedCoDel
	}
	return c
}

func (s *groupStack) queued() int {
	n := 0
	for _, m := range s.members {
		n += m.gw.AdmissionStats().Queued
	}
	return n
}

func (s *groupStack) observeNs() []float64 { return collectObserveNs(s.timed) }

func (s *groupStack) creators() map[string]string { return nil }

func (s *groupStack) verify(uint64) error { return nil }

func (s *groupStack) meanBurst() float64 { return 1 }

func (s *groupStack) close() error {
	if s.pool != nil {
		s.pool.close()
	}
	for _, m := range s.members {
		if m == nil {
			continue
		}
		if m.stop != nil {
			m.stop()
		}
		if m.ing != nil {
			m.ing.Close()
		}
		if m.linker != nil {
			m.linker.Close()
		}
		if m.gw != nil {
			m.gw.Close()
		}
		if m.rt != nil {
			m.rt.Close()
		}
	}
	return nil
}
