package main

import "strings"

// clients is the number of client goroutines (and connections) every
// workload drives: the benchmark host's core count.
const clients = 2

// endToEndNames are the metrics the untraced result line carries;
// BENCHMARK.json lists the same names.
var endToEndNames = map[string]bool{
	"setup_s":          true,
	"throughput_ops_s": true,
	"cpu_ms_per_op":    true,
	"peak_rss_mb":      true,
}

// tieredRoutes answer with an X-Cache tier; the others have none.
var (
	tieredRoutes = []string{"synthesize", "verify", "delta"}
	tiers        = []string{"memory", "disk", "remote", "miss"}
	plainRoutes  = []string{"batch", "simulate", "stream"}
)

// perLayerNames are the metrics the traced result line carries, in
// print order; every workload reports all of them (0 where a layer
// does no work).
var perLayerNames = func() []string {
	names := []string{
		"core.paredown.busy_ms", "core.paredown.fit_checks",
		"core.exhaustive.busy_ms", "core.exhaustive.nodes_visited",
		"randgen.busy_ms",
		"block.catalog_ms", "netlist.decode_ms", "netlist.fingerprint_ms",
		"synth.capture_ms", "synth.partition_ms", "synth.merge_ms", "synth.emit_ms", "synth.merge.adopted_ratio",
	}
	for _, r := range tieredRoutes {
		for _, t := range tiers {
			names = append(names, "service."+r+"."+t+".calls", "service."+r+"."+t+".self_ms")
		}
	}
	for _, r := range plainRoutes {
		names = append(names, "service."+r+".none.calls", "service."+r+".none.self_ms")
	}
	names = append(names,
		"service.encode_ms", "service.http_hop_ms", "service.memory_hit_ratio", "service.coalesced",
	)
	for _, t := range tiers {
		names = append(names, "store.get."+t+".calls", "store.get."+t+"_ms")
	}
	return append(names,
		"store.put_ms", "store.remote.get_ms", "store.remote.put_ms", "store.remote.fail",
		"router.hop_ms", "router.retries", "router.shard_share_max",
		"sim.script_parse_ms", "sim.run_ms", "sim.events", "sim.events_per_s", "sim.snapshot_ms", "service.stream_hop_ms",
		"runtime.alloc_bytes_per_op", "runtime.gc_cpu_ms",
		"load.lag_p99_ms", "load.sent",
		"trace.overhead_ms", "trace.reconcile_err", "trace.spans",
	)
}()

// perLayerUnit derives a per-layer metric's unit from its name.
func perLayerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_share_max"), strings.HasSuffix(name, "_err"):
		return "ratio"
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "bytes_per_op"):
		return "B"
	default:
		return "count"
	}
}
