package main

import (
	"sort"
	"strings"

	"parcc"
)

// family is one solve-phase graph: the algorithm the session is created
// with (auto, or FLS for the paper's own regime) and the generator.
type family struct {
	name    string
	algo    parcc.Algorithm
	gen     func(seed uint64) *parcc.Graph
	perPass int // cold solves per pass: the cheap, noisier auto families get two
}

// workload fixes the input sizes of one run.  Both workloads run the same
// three phases; they differ in working-set size relative to the caches,
// the input property the kernels, the snapshot reads and the WAL replay
// all depend on.
type workload struct {
	name     string
	families []family
	readN    int // serve-read graph: GNM(readN, readM)
	readM    int
	writeN   int // serve-write graph: GNM(writeN, writeM)
	writeM   int
	writeOps int // durable writes per connection (fixed, so recover_s replays a fixed log)
}

func gnm(n, m int) func(uint64) *parcc.Graph {
	return func(seed uint64) *parcc.Graph { return parcc.GNM(n, m, seed) }
}

func torus(side int) func(uint64) *parcc.Graph {
	return func(uint64) *parcc.Graph { return parcc.Torus(side, side) }
}

func regular(n, d int) func(uint64) *parcc.Graph {
	return func(seed uint64) *parcc.Graph { return parcc.RandomRegular(n, d, seed) }
}

var workloads = map[string]workload{
	// large: the label array of the read graph (4 MiB) and the solve
	// graphs exceed one core's L2, so lookups and kernels miss cache.
	"large": {
		name: "large",
		families: []family{
			{"sparse", parcc.Auto, gnm(1<<20, 1<<21), 2},
			{"dense", parcc.Auto, gnm(1<<18, 1<<22), 2},
			{"mesh", parcc.Auto, torus(1024), 2},
			{"fls", parcc.FLS, regular(1<<17, 8), 1},
		},
		readN: 1 << 20, readM: 1 << 21,
		writeN: 1 << 18, writeM: 1 << 19,
		writeOps: 2500,
	},
	// small: every input 1/16 of large, so labels and plans stay
	// cache-resident and fixed per-call costs dominate.
	"small": {
		name: "small",
		families: []family{
			{"sparse", parcc.Auto, gnm(1<<16, 1<<17), 2},
			{"dense", parcc.Auto, gnm(1<<14, 1<<18), 2},
			{"mesh", parcc.Auto, torus(256), 2},
			{"fls", parcc.FLS, regular(1<<13, 8), 1},
		},
		readN: 1 << 16, readM: 1 << 17,
		writeN: 1 << 14, writeM: 1 << 15,
		writeOps: 2500,
	},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

// endToEndNames and perLayerNames are the metric sets a run must print
// (untraced and traced respectively); BENCHMARK.json lists the same names.
var endToEndNames = []string{
	"setup_s", "rss_mb",
	"sparse_ms", "dense_ms", "mesh_ms", "fls_ms",
	"read_p50_ms", "read_p99_ms", "batch_p50_ms", "read_qps",
	"recover_s", "catchup_s",
}

var perLayerNames = []string{
	"write_p50_ms", "write_p99_ms", "write_qps", "mixed_read_p50_ms",
	"graph.plan_ms.sparse", "graph.plan_ms.dense", "graph.plan_ms.mesh", "graph.plan_ms.fls",
	"par.warm_ms.sparse", "par.warm_ms.dense", "par.warm_ms.mesh",
	"par.ns_per_edge.sparse", "par.ns_per_edge.dense", "par.ns_per_edge.mesh",
	"core.warm_ms.fls", "core.steps.fls", "core.work_per_mn.fls",
	"solve.alloc_mb.sparse", "solve.alloc_mb.dense", "solve.alloc_mb.mesh", "solve.alloc_mb.fls",
	"snapshot.read_ns", "snapshot.publish_us",
	"session.add_us", "session.remove_us",
	"dynconn.forest_delete_share", "dynconn.replace_scans_per_delete", "dynconn.splits", "dynconn.budget_fallbacks",
	"service.read_ns", "service.write_us", "service.applies_per_write",
	"wal.fsyncs_per_write", "wal.bytes_per_edge", "wal.replay_edges_per_s",
	"http.handler_us.connected", "http.handler_us.component", "http.handler_us.count",
	"http.handler_us.batch", "http.handler_us.add", "http.handler_us.remove", "http.roundtrip_us",
	"http.batch_max_ops",
	"repl.groups_per_s", "repl.frames_per_group", "repl.reconnects",
	"solve.setup_s", "serve.setup_s", "solve.rss_mb",
	"trace.overhead_pct", "trace.sum_err_pct.solve", "trace.sum_err_pct.read", "trace.sum_err_pct.write",
}
