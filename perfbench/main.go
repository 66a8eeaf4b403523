// Command perfbench is the repository benchmark.  One run builds its
// inputs from -seed, drives three phases end to end and prints, as the
// last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// Phases (each run executes all three, so every workload reports every
// end-to-end metric; see README.md for the full rationale):
//
//   - solve: cold parcc.Solver solves of four graph families, one per
//     auto branch (cas, sample, frontier) plus FLS on an expander, each
//     checked against the internal/baseline union-find referee.
//   - serve-read: the unmodified cmd/ccserved binary, no WAL, two
//     closed-loop connections issuing point GETs and 64-op /batch
//     requests, every answer checked against the oracle partition.
//   - serve-write: ccserved with -wal-dir, two closed-loop connections
//     issuing a 1:1 mix of point GETs and 8-edge durable writes, then a
//     kill -9, a restart on the same WAL and a fresh -follow follower.
//
// With -trace 1 the run records spans around every call into a layer,
// probes each layer's public entry point in-process and prints the
// per-layer metrics instead of the end-to-end ones.
//
// Usage (normally through run.sh, which builds ccserved first):
//
//	perfbench -workload large -seed 1 -seconds 24 -trace 0 -ccserved .bench_build/bin/ccserved
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// metric is one named number in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output contract.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's settings and accumulates its outcome.
type run struct {
	cfg      workload
	seed     uint64
	budget   time.Duration // --seconds, split across the phases
	traced   bool
	ccserved string // path of the ccserved binary under test
	work     string // scratch directory for WALs, logs and spans

	acct     accounting
	e2e      map[string]metric
	layer    map[string]metric
	spans    *spanLog
	procs    *procSet
	dispatch map[string]string // family -> Result.Algorithm the solver reported

	setupSolve, setupServe float64   // set-up medians, s
	readE2E                readStats // the serve-read window, for the layer sums
	healthzUS              float64   // median GET /healthz round trip
}

func (r *run) setE2E(name string, v float64, unit string) {
	r.e2e[name] = metric{Value: finite(v), Unit: unit}
}

func (r *run) setLayer(name string, v float64, unit string) {
	r.layer[name] = metric{Value: finite(v), Unit: unit}
}

// finite maps the +Inf a quantile takes when it lands on a failed
// operation to the largest float, which JSON can carry; NaN (no samples)
// becomes -1.
func finite(v float64) float64 {
	switch {
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsNaN(v), math.IsInf(v, -1):
		return -1
	}
	return v
}

func main() {
	var (
		wl       = flag.String("workload", "", "workload name: "+workloadNames())
		seed     = flag.Uint64("seed", 1, "workload seed: every input is generated from it")
		seconds  = flag.Int("seconds", 24, "measured seconds, split across the solve, serve-read and serve-write phases")
		trace    = flag.Int("trace", 0, "1: record spans and print the per-layer metrics instead of the end-to-end ones")
		ccserved = flag.String("ccserved", ".bench_build/bin/ccserved", "path of the ccserved binary to drive")
		work     = flag.String("work", ".bench_build/work", "scratch directory for WALs, server logs and span files")
	)
	flag.Parse()
	cfg, ok := workloads[*wl]
	if !ok {
		fatalf("unknown workload %q (want %s)", *wl, workloadNames())
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("-seconds must be >= 1 and -trace 0 or 1")
	}
	if _, err := os.Stat(*ccserved); err != nil {
		fatalf("ccserved binary: %v", err)
	}
	dir, err := os.MkdirTemp(mustMkdir(*work), fmt.Sprintf("%s-%d-", cfg.name, *seed))
	if err != nil {
		fatalf("work dir: %v", err)
	}
	r := &run{
		cfg: cfg, seed: *seed, budget: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, ccserved: *ccserved, work: dir,
		e2e: map[string]metric{}, layer: map[string]metric{},
		procs: &procSet{}, dispatch: map[string]string{},
	}
	r.spans = newSpanLog(r.traced)

	// Every ccserved this run starts is killed and reaped on every exit
	// path, including a signal to the benchmark itself.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		r.procs.killAll()
		os.Exit(1)
	}()

	err = r.execute()
	r.procs.killAll()
	if err != nil {
		fatalf("%s: %v", cfg.name, err)
	}
	if err := os.RemoveAll(filepath.Join(dir, "wal")); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: remove wal dir: %v\n", err)
	}

	res := result{
		Correct:   r.acct.failed.Load() == 0,
		Attempted: r.acct.attempted.Load(),
		Failed:    r.acct.failed.Load(),
		Metrics:   r.e2e,
	}
	want := endToEndNames
	if r.traced {
		res.Metrics = r.layer
		want = perLayerNames
	}
	for _, name := range want {
		if _, ok := res.Metrics[name]; !ok {
			fatalf("metric %q was not measured", name)
		}
	}
	for name, f := range r.acct.firstFailures() {
		fmt.Fprintf(os.Stderr, "perfbench: failure [%s]: %s\n", name, f)
	}
	fams := make([]string, 0, len(r.dispatch))
	for f := range r.dispatch {
		fams = append(fams, f)
	}
	sort.Strings(fams)
	for _, f := range fams {
		fmt.Fprintf(os.Stderr, "perfbench: dispatch %s -> %s\n", f, r.dispatch[f])
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(out))
}

// Rounds interleave the phases, so every metric samples the whole run
// rather than one slice of it: the development machine's speed drifts by
// 10-20 % within a minute, and a phase run back to back would catch one
// phase of that drift.  Each of the first rounds runs solve passes, a
// read slice and a write slice; each of the later ones runs solve passes
// and crash/restart + follower catch-up cycles, which need the finished
// write log.
const (
	loadRounds  = 6
	crashRounds = 5
	crashShare  = 0.2 // share of --seconds the crash cycles take, at least one per crash round
)

// execute sets up the three phases, runs the rounds and reports.
func (r *run) execute() error {
	sv, err := r.solveSetup()
	if err != nil {
		return fmt.Errorf("solve: %w", err)
	}
	defer sv.close()
	rd, err := r.readSetup()
	if err != nil {
		return fmt.Errorf("serve-read: %w", err)
	}
	wr, err := r.writeSetup()
	if err != nil {
		return fmt.Errorf("serve-write: %w", err)
	}
	solveSlice := time.Duration(solveShare * float64(r.budget) / (loadRounds + crashRounds))
	readSlice := time.Duration(readShare * float64(r.budget) / loadRounds)
	for i := 0; i < loadRounds; i++ {
		sv.passes(solveSlice)
		rd.slice(readSlice, r.traced && i%2 == 1)
		wr.slice(r.cfg.writeOps / loadRounds)
	}
	if err := rd.finish(); err != nil {
		return fmt.Errorf("serve-read: %w", err)
	}
	if err := wr.finish(); err != nil {
		return fmt.Errorf("serve-write: %w", err)
	}
	for i := 0; i < crashRounds; i++ {
		sv.passes(solveSlice)
		if err := wr.crashCycles(time.Duration(crashShare * float64(r.budget) / crashRounds)); err != nil {
			return fmt.Errorf("serve-write: %w", err)
		}
	}
	wr.done()
	if err := sv.finish(); err != nil {
		return fmt.Errorf("solve: %w", err)
	}
	if r.traced {
		r.layerSums()
		if err := r.spans.write(filepath.Join(r.work, "spans.jsonl")); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return nil
}

func mustMkdir(d string) string {
	if err := os.MkdirAll(d, 0o755); err != nil {
		fatalf("mkdir %s: %v", d, err)
	}
	return d
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
