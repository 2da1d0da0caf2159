package main

import (
	"math"
	"strings"
)

// layerMetricNames are the per-layer metrics the traced run derives
// from spans.
var layerMetricNames = []string{
	"ingress.serve_ms.p50", "ingress.serve_ms.p99", "ingress.self_ms.p50",
	"ingress.forward_ms.p50", "ingress.then_ms.p50", "http.client_ms.p50",
	"runtime.dispatch_ms.p50", "runtime.dispatch_ms.p99", "rpc.transport_ms.p50",
	"runtime.gateway_ms.p50", "runtime.gateway_ms.p99", "runtime.fn_ms.p50",
	"runtime.overhead_ms.p50",
	"trace.loadgen_ms", "trace.http_ms", "trace.ingress_ms", "trace.rpc_ms",
	"trace.runtime_ms", "trace.fn_ms", "trace.unattributed_ms",
	"trace.unattributed_frac", "trace.mean_ms",
}

func layerUnit(name string) string {
	if strings.HasSuffix(name, "_frac") {
		return "frac"
	}
	return "ms"
}

func durMs(s span) float64 { return float64(s.end.Sub(s.start)) / 1e6 }

// analyze turns the traced phase's spans into per-layer metrics. Each
// request's time is split over the layers by attribute, and each
// boundary's own duration gives that layer's latency distribution.
func analyze(tr *tracer, creators map[string]string) map[string]float64 {
	var serve, then, ingSelf, forward, client, dispatch, transport, gateway, fn, overhead []float64
	share := map[string]float64{}
	total, n := 0.0, 0
	for _, spans := range tr.byRequest(creators) {
		byName := map[string][]span{}
		for _, s := range spans {
			byName[s.name] = append(byName[s.name], s)
		}
		if sv := byName["ingress.serve"]; len(sv) > 0 {
			first, last := sv[0], sv[0]
			for _, s := range sv {
				if s.start.Before(first.start) {
					first = s
				}
				if s.start.After(last.start) {
					last = s
				}
			}
			serve = append(serve, durMs(first))
			if len(sv) > 1 {
				then = append(then, durMs(last))
			}
			if ow := byName["ingress.owner"]; len(ow) > 0 {
				forward = append(forward, durMs(first)-durMs(ow[0]))
			}
		}
		fnSum := 0.0
		for _, s := range byName["fn"] {
			fn = append(fn, durMs(s))
			fnSum += durMs(s)
		}
		var gw float64
		for _, s := range byName["rpc.server"] {
			gateway = append(gateway, durMs(s))
			gw = durMs(s)
		}
		if len(byName["rpc.server"]) > 0 {
			overhead = append(overhead, gw-fnSum)
		}
		for _, s := range byName["runtime.dispatch"] {
			dispatch = append(dispatch, durMs(s))
			if gw > 0 {
				transport = append(transport, durMs(s)-gw)
			}
		}
		sh, lat, ok := attribute(spans)
		if !ok {
			continue
		}
		n++
		total += lat
		for k, v := range sh {
			share[k] += v
		}
		ingSelf = append(ingSelf, sh["ingress"])
		client = append(client, sh["http"])
	}
	out := map[string]float64{
		"ingress.serve_ms.p50":    newDist(serve).must(50),
		"ingress.serve_ms.p99":    newDist(serve).must(99),
		"ingress.self_ms.p50":     newDist(ingSelf).must(50),
		"ingress.forward_ms.p50":  newDist(forward).must(50),
		"ingress.then_ms.p50":     newDist(then).must(50),
		"http.client_ms.p50":      newDist(client).must(50),
		"runtime.dispatch_ms.p50": newDist(dispatch).must(50),
		"runtime.dispatch_ms.p99": newDist(dispatch).must(99),
		"rpc.transport_ms.p50":    newDist(transport).must(50),
		"runtime.gateway_ms.p50":  newDist(gateway).must(50),
		"runtime.gateway_ms.p99":  newDist(gateway).must(99),
		"runtime.fn_ms.p50":       newDist(fn).must(50),
		"runtime.overhead_ms.p50": newDist(overhead).must(50),
	}
	if n > 0 {
		for _, l := range layerNames {
			out["trace."+l+"_ms"] = share[l] / float64(n)
		}
		out["trace.mean_ms"] = total / float64(n)
		out["trace.unattributed_frac"] = share["unattributed"] / total
	}
	for k, v := range out {
		if math.IsNaN(v) {
			out[k] = 0 // no boundary of this kind on the workload's path
		}
	}
	return out
}
