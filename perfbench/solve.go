package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"parcc"
	"parcc/internal/baseline"
)

const (
	setupReps    = 3 // set-ups per run at least; setup_s is their median
	setupFloor   = 2 * time.Second
	solveShare   = 0.4 // share of --seconds the cold passes measure, at least
	sumTolerance = 25  // percent: layer self times vs end-to-end median
)

// solver is the solve phase: the graphs, their reference partitions, the
// sessions and the cold samples so far.  It measures cold auto/FLS solves
// through the public Solver API, with zero Options except Algorithm.
// "Cold" means SolveInto on a graph the session has not seen, so the CSR
// plan build is included.
type solver struct {
	r       *run
	graphs  []*parcc.Graph
	refs    [][]int32
	solvers map[parcc.Algorithm]*parcc.Solver
	cold    []samples
	res     parcc.Result
}

// solveSetup generates the graphs and times set-up: NewSolver plus one
// untimed warm-up pass over the graphs, repeated; the last set of
// sessions is kept for the measured passes.
func (r *run) solveSetup() (*solver, error) {
	fams := r.cfg.families
	sv := &solver{r: r, graphs: make([]*parcc.Graph, len(fams)), refs: make([][]int32, len(fams)),
		cold: make([]samples, len(fams))}
	for i, f := range fams {
		sv.graphs[i] = f.gen(r.seed + uint64(i))
		sv.refs[i] = baseline.UnionFindLabels(sv.graphs[i])
	}
	var setups samples
	for rep, begin := 0, time.Now(); again(rep, setupReps, begin, setupFloor); rep++ {
		sv.close()
		clones := cloneAll(sv.graphs)
		runtime.GC()
		t0 := time.Now()
		sv.solvers = map[parcc.Algorithm]*parcc.Solver{}
		for i, f := range fams {
			s := sv.solvers[f.algo]
			if s == nil {
				var err error
				if s, err = parcc.NewSolver(&parcc.Options{Algorithm: f.algo}); err != nil {
					return nil, err
				}
				sv.solvers[f.algo] = s
			}
			sv.verify(i, s.SolveInto(clones[i], &sv.res))
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.setupSolve = setups.median()
	r.setLayer("solve.setup_s", r.setupSolve, "s")
	return sv, nil
}

func (sv *solver) close() {
	for _, s := range sv.solvers {
		s.Close()
	}
}

// verify checks the last result against the union-find referee.
func (sv *solver) verify(i int, err error) bool {
	name := sv.r.cfg.families[i].name
	if err != nil {
		sv.r.acct.fail("solve", "%s: %v", name, err)
		return false
	}
	ok := samePartition(sv.res.Labels, sv.refs[i])
	sv.r.acct.check(ok, "solve", "%s: partition differs from the union-find referee", name)
	return ok
}

// passes runs cold passes over the families, at least one, until d is
// spent.  Before each timed solve garbage is collected and the freed
// memory returned to the OS, so every cold solve starts from the same
// heap state and faults in its memory like the first solve of a fresh
// process.
func (sv *solver) passes(d time.Duration) {
	r := sv.r
	for start, first := time.Now(), true; first || time.Since(start) < d; first = false {
		for i, f := range r.cfg.families {
			for k := 0; k < f.perPass; k++ {
				g := sv.graphs[i].Clone()
				debug.FreeOSMemory()
				req := r.spans.newReq()
				t0 := time.Now()
				err := sv.solvers[f.algo].SolveInto(g, &sv.res)
				t1 := time.Now()
				r.spans.add(req, 0, "solve.cold."+f.name, t0, t1)
				if sv.verify(i, err) {
					sv.cold[i] = append(sv.cold[i], ms(t1.Sub(t0)))
					r.dispatch[f.name] = string(sv.res.Algorithm)
				} else {
					sv.cold[i] = append(sv.cold[i], math.Inf(1))
				}
			}
		}
	}
}

// finish reports the per-family medians (never one across families) and,
// traced, the per-layer split.
func (sv *solver) finish() error {
	r := sv.r
	for i, f := range r.cfg.families {
		c := sv.cold[i]
		r.setE2E(f.name+"_ms", c.median(), "ms")
		fmt.Fprintf(os.Stderr, "perfbench: cold %s: %d solves, min %.2f p50 %.2f max %.2f ms\n",
			f.name, len(c), c.quantile(0), c.median(), c.quantile(1))
	}
	rss, err := hwmMB("self")
	if err != nil {
		return err
	}
	r.setLayer("solve.rss_mb", rss, "MB")
	if r.traced {
		return sv.layers()
	}
	return nil
}

// layers splits each cold solve into plan build and warm kernel.  One
// root span per sample covers Solver.Plan on an unseen graph followed by
// SolveInto on the same graph, now with its plan cached.
func (sv *solver) layers() error {
	const reps = 5
	r, graphs, refs, cold := sv.r, sv.graphs, sv.refs, sv.cold
	var res parcc.Result
	worst := 0.0
	for i, f := range r.cfg.families {
		s := sv.solvers[f.algo]
		m := float64(graphs[i].M())
		var plan, warm, alloc samples
		for rep := 0; rep < reps; rep++ {
			// Allocation of one cold solve.
			g := graphs[i].Clone()
			debug.FreeOSMemory()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := s.SolveInto(g, &res); err != nil {
				return err
			}
			runtime.ReadMemStats(&after)
			alloc = append(alloc, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))

			// Plan build, then the warm kernel on the cached plan.
			g = graphs[i].Clone()
			debug.FreeOSMemory()
			req := r.spans.newReq()
			t0 := time.Now()
			s.Plan(g)
			t1 := time.Now()
			err := s.SolveInto(g, &res)
			t2 := time.Now()
			root := r.spans.add(req, 0, "solve.split."+f.name, t0, t2)
			r.spans.add(req, root, "graph.plan."+f.name, t0, t1)
			r.spans.add(req, root, "kernel."+f.name, t1, t2)
			if err != nil {
				return err
			}
			r.acct.check(samePartition(res.Labels, refs[i]), "solve", "%s: warm partition differs", f.name)
			plan = append(plan, ms(t1.Sub(t0)))
			warm = append(warm, ms(t2.Sub(t1)))
		}
		r.setLayer("graph.plan_ms."+f.name, plan.median(), "ms")
		r.setLayer("solve.alloc_mb."+f.name, alloc.median(), "MB")
		if f.algo == parcc.FLS {
			r.setLayer("core.warm_ms.fls", warm.median(), "ms")
			r.setLayer("core.steps.fls", float64(res.Steps), "count")
			r.setLayer("core.work_per_mn.fls", float64(res.Work)/(m+float64(graphs[i].N)), "ratio")
		} else {
			r.setLayer("par.warm_ms."+f.name, warm.median(), "ms")
			r.setLayer("par.ns_per_edge."+f.name, warm.median()*1e6/m, "ns")
		}

		// Does the cold solve build a plan at all?  A traced session's
		// phase breakdown says; only then does the plan layer belong in
		// the cold solve's sum.
		ts, err := parcc.NewSolver(&parcc.Options{Algorithm: f.algo, Trace: true})
		if err != nil {
			return err
		}
		err = ts.SolveInto(graphs[i].Clone(), &res)
		ts.Close()
		if err != nil {
			return err
		}
		sum := warm.median()
		if res.Trace != nil && res.Trace.Phase("plan") > 0 {
			sum += plan.median()
		}
		c := cold[i].median()
		e := 100 * math.Abs(sum-c) / c
		fmt.Fprintf(os.Stderr, "perfbench: layer sum %s: plan+kernel %.2f ms vs cold %.2f ms (%.1f%%)\n", f.name, sum, c, e)
		worst = math.Max(worst, e)
	}
	r.setLayer("trace.sum_err_pct.solve", worst, "%")
	return nil
}

func cloneAll(gs []*parcc.Graph) []*parcc.Graph {
	out := make([]*parcc.Graph, len(gs))
	for i, g := range gs {
		out[i] = g.Clone()
	}
	return out
}
