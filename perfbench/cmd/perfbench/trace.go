package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// A span covers one layer boundary of one request. Spans are recorded
// by the benchmark's own wrappers around the calls into each layer,
// kept in memory and written out once, when the run ends.
type span struct {
	key        string // "o<request>" or, server side of the durable path, "r<result id>"
	name       string
	start, end time.Time
}

// spanKinds fixes each span's parent, its nesting depth and the layer
// its self time is charged to. Server-side wrappers cannot see the
// caller's span, so the parent is the boundary that encloses them on
// every request path.
var spanKinds = map[string]struct {
	parent string
	depth  int
	layer  string
}{
	"request":          {"", 0, "unattributed"},
	"loadgen.wait":     {"request", 1, "loadgen"},
	"http.client":      {"request", 1, "http"},
	"ingress.serve":    {"http.client", 2, "ingress"},
	"ingress.owner":    {"ingress.serve", 3, "ingress"},
	"runtime.dispatch": {"ingress.serve", 4, "rpc"},
	"rpc.server":       {"runtime.dispatch", 5, "runtime"},
	"fn":               {"rpc.server", 6, "fn"},
	"geo.cell_index":   {"", 1, "geo"},
	"netsim.neighbors": {"", 1, "netsim"},
	"scenario.mission": {"", 1, "scenario"},
}

// layerNames lists the layers live requests are attributed to, in
// path order.
var layerNames = []string{"loadgen", "http", "ingress", "rpc", "runtime", "fn", "unattributed"}

// tracer collects spans; a nil tracer records nothing, so untraced runs
// pay one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(key, name string, start time.Time) {
	if t != nil {
		t.addSpan(key, name, start, time.Now())
	}
}

func (t *tracer) addSpan(key, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{key: key, name: name, start: start, end: end})
	t.mu.Unlock()
}

func opKey(id int) string        { return "o" + itoa(id) }
func resultKey(id string) string { return "r" + id }
func itoa(i int) string          { return strconv.Itoa(i) }

type spanKeyCtx struct{}

// withSpanKey lets the server-side interceptor pass the request's key
// down to the registered functions it calls.
func withSpanKey(ctx context.Context, key string) context.Context {
	return context.WithValue(ctx, spanKeyCtx{}, key)
}

func spanKeyFrom(ctx context.Context) string {
	k, _ := ctx.Value(spanKeyCtx{}).(string)
	return k
}

// byRequest groups spans under the request they belong to. Server-side
// spans filed under a result id go to the request that created the job:
// the earliest submission that received that id.
func (t *tracer) byRequest(creator map[string]string) map[string][]span {
	out := map[string][]span{}
	for _, s := range t.spans {
		k := s.key
		if c, ok := creator[k]; ok {
			k = c
		}
		out[k] = append(out[k], s)
	}
	return out
}

// attribute charges every instant of a request's root span to the
// deepest span active at that instant; time covered by the root alone
// is unattributed. The shares add up to the root's duration.
func attribute(spans []span) (map[string]float64, float64, bool) {
	var root *span
	for i := range spans {
		if spans[i].name == "request" {
			root = &spans[i]
		}
	}
	if root == nil {
		return nil, 0, false
	}
	cuts := []time.Time{root.start, root.end}
	for _, s := range spans {
		for _, c := range []time.Time{s.start, s.end} {
			if c.After(root.start) && c.Before(root.end) {
				cuts = append(cuts, c)
			}
		}
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i].Before(cuts[j]) })
	share := map[string]float64{}
	for i := 0; i+1 < len(cuts); i++ {
		a, b := cuts[i], cuts[i+1]
		if !b.After(a) {
			continue
		}
		best, depth := "request", -1
		for _, s := range spans {
			if d := spanKinds[s.name].depth; !s.start.After(a) && !s.end.Before(b) && d > depth {
				best, depth = s.name, d
			}
		}
		share[spanKinds[best].layer] += float64(b.Sub(a)) / 1e6
	}
	return share, float64(root.end.Sub(root.start)) / 1e6, true
}

// write stores the spans as JSON lines, one per span, with the request
// each belongs to and its parent boundary.
func (t *tracer) write(path string, creator map[string]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	var epoch time.Time
	for i, s := range t.spans {
		if i == 0 || s.start.Before(epoch) {
			epoch = s.start
		}
	}
	for _, s := range t.spans {
		req := s.key
		if c, ok := creator[req]; ok {
			req = c
		}
		rec := struct {
			Req     string  `json:"req"`
			Name    string  `json:"name"`
			Parent  string  `json:"parent"`
			StartUs float64 `json:"start_us"`
			EndUs   float64 `json:"end_us"`
		}{req, s.name, spanKinds[s.name].parent,
			float64(s.start.Sub(epoch)) / 1e3, float64(s.end.Sub(epoch)) / 1e3}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
