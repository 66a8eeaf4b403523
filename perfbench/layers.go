package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"parcc"
	"parcc/internal/service"
)

// servedOptions mirrors ccserved's flag defaults (-backend "", -seed 1,
// -trust, -trace), so the in-process probes run the sessions ccserved
// runs.
func servedOptions() *parcc.Options {
	return &parcc.Options{Seed: 1, TrustGraph: true, Trace: true}
}

const (
	probeReps  = 2000 // in-process handler / engine calls per probe
	probeBlock = 4096 // snapshot / engine point reads per timed block
)

// readLayers probes the read path's layers in-process on the same graph:
// Snapshot point reads, Engine point reads and the HTTP handler.
func (r *run) readLayers(g *parcc.Graph, or *oracle, base string) error {
	eng := service.New(service.Options{Solver: servedOptions()})
	defer eng.Close()
	if err := eng.Create("r", g.Clone()); err != nil {
		return err
	}
	sn, err := eng.Snapshot("r")
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewPCG(r.seed, 500))
	n := g.N

	// Snapshot and Engine point reads: ns per call over blocks.
	var snapNS, engNS samples
	for b := 0; b < 32; b++ {
		req := r.spans.newReq()
		t0 := time.Now()
		for i := 0; i < probeBlock; i++ {
			u, v := rng.IntN(n), rng.IntN(n)
			switch i % 3 {
			case 0:
				sink += boolInt(sn.Connected(u, v))
			case 1:
				sink += int(sn.ComponentOf(u))
			default:
				sink += sn.ComponentSize(u)
			}
		}
		t1 := time.Now()
		for i := 0; i < probeBlock; i++ {
			u, v := rng.IntN(n), rng.IntN(n)
			var x int
			switch i % 3 {
			case 0:
				ok, _ := eng.Connected("r", u, v)
				x = boolInt(ok)
			case 1:
				c, _ := eng.ComponentOf("r", u)
				x = int(c)
			default:
				x, _ = eng.ComponentSize("r", u)
			}
			sink += x
		}
		t2 := time.Now()
		root := r.spans.add(req, 0, "probe.reads", t0, t2)
		r.spans.add(req, root, "snapshot.read_block", t0, t1)
		r.spans.add(req, root, "service.read_block", t1, t2)
		snapNS = append(snapNS, float64(t1.Sub(t0))/probeBlock)
		engNS = append(engNS, float64(t2.Sub(t1))/probeBlock)
	}
	r.setLayer("snapshot.read_ns", snapNS.median(), "ns")
	r.setLayer("service.read_ns", engNS.median(), "ns")

	// The HTTP handler in-process, per route.
	h := service.NewHandler(eng)
	var handler [3]samples
	for i := 0; i < probeReps; i++ {
		u, v := rng.IntN(n), rng.IntN(n)
		urls := [3]string{
			"/graphs/r/connected?u=" + strconv.Itoa(u) + "&v=" + strconv.Itoa(v),
			"/graphs/r/component?u=" + strconv.Itoa(u),
			"/graphs/r/count",
		}
		for k, url := range urls {
			d, code := r.serveOnce(h, "GET", url, nil, "http.handler."+kindNames[k])
			r.acct.check(code == http.StatusOK, "handler", "in-process GET %s: status %d", url, code)
			handler[k] = append(handler[k], us(d))
		}
	}
	var batch samples
	var body []byte
	var qs []query
	for i := 0; i < probeReps/8; i++ {
		body, qs = batchBody(body, qs, rng, n)
		d, code := r.serveOnce(h, "POST", "/graphs/r/batch", body, "http.handler.batch")
		r.acct.check(code == http.StatusOK, "handler", "in-process batch: status %d", code)
		batch = append(batch, us(d))
	}
	hmean := 0.0
	for k, name := range kindNames {
		r.setLayer("http.handler_us."+name, handler[k].median(), "us")
		hmean += handler[k].median() / 3
	}
	r.setLayer("http.handler_us.batch", batch.median(), "us")
	e2e := r.readE2E.single.median() * 1000
	r.setLayer("http.roundtrip_us", e2e-hmean, "us")

	// Layer-sum check on one unloaded connection: GET /healthz on the same
	// ccserved times the transport and mux with no engine work; that plus
	// the handler must come to the point-read median.
	rtt, err := r.healthRTT(base)
	if err != nil {
		return err
	}
	r.healthzUS = rtt
	cl := newClient()
	defer cl.CloseIdleConnections()
	var buf bytes.Buffer
	var one samples
	for i := 0; i < probeReps; i++ {
		lat, _ := r.pointRead(cl, base+"/graphs/r", i%3, rng.IntN(n), rng.IntN(n), or, &buf)
		one = append(one, lat*1000)
	}
	r.sumCheck("read", rtt+hmean, one.median())
	r.setLayer("http.batch_max_ops", float64(batchLimit(cl, base, rng, n)), "count")
	return nil
}

// batchLimit is the largest batch, doubling from batchOps up to 1024
// ops, that the /batch endpoint answers with one error-free line per op.
// It is a capability probe, not load: its requests are not operations.
func batchLimit(cl *http.Client, base string, rng *rand.Rand, n int) int {
	best := 0
	var buf bytes.Buffer
	for size := batchOps; size <= 1024; size *= 2 {
		var body []byte
		for i := 0; i < size; i++ {
			body = append(body, `{"op":"connected","u":`...)
			body = strconv.AppendInt(body, int64(rng.IntN(n)), 10)
			body = append(body, `,"v":`...)
			body = strconv.AppendInt(body, int64(rng.IntN(n)), 10)
			body = append(body, "}\n"...)
		}
		if do(cl, "POST", base+"/graphs/r/batch", body, &buf) != nil ||
			bytes.Count(buf.Bytes(), []byte("\n")) != size || bytes.Contains(buf.Bytes(), []byte(`"error"`)) {
			break
		}
		best = size
	}
	return best
}

var sink int // keeps probe reads from being optimized away

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// serveOnce runs one request through an in-process handler and records
// its span.
func (r *run) serveOnce(h http.Handler, method, url string, body []byte, name string) (time.Duration, int) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, url, rd)
	rec := httptest.NewRecorder()
	id := r.spans.newReq()
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	t1 := time.Now()
	r.spans.add(id, 0, name, t0, t1)
	return t1.Sub(t0), rec.Code
}

// healthRTT is the median latency in µs of GET /healthz on a server.
func (r *run) healthRTT(base string) (float64, error) {
	cl := newClient()
	defer cl.CloseIdleConnections()
	var buf bytes.Buffer
	var s samples
	for i := 0; i < probeReps; i++ {
		id := r.spans.newReq()
		t0 := time.Now()
		if err := do(cl, "GET", base+"/healthz", nil, &buf); err != nil {
			return 0, err
		}
		t1 := time.Now()
		r.spans.add(id, 0, "http.get.healthz", t0, t1)
		s = append(s, us(t1.Sub(t0)))
	}
	return s.median(), nil
}

// sumCheck records how far the sum of a stack's layer times lies from its
// end-to-end median, and warns beyond the stated tolerance.
func (r *run) sumCheck(stack string, layers, e2e float64) {
	e := 100 * math.Abs(layers-e2e) / e2e
	verdict := "within"
	if e > sumTolerance {
		verdict = "OUTSIDE"
	}
	fmt.Fprintf(os.Stderr, "perfbench: layer sum %s: %.1f vs end-to-end %.1f (%.1f%%, %s the %d%% tolerance)\n",
		stack, layers, e2e, e, verdict, sumTolerance)
	r.setLayer("trace.sum_err_pct."+stack, e, "%")
}

// writeCounters derives the WAL, engine and replication ratios from the
// /metrics pages of the primary (before and after the window), of the
// recovered primary and of the caught-up follower.
func (r *run) writeCounters(before, after, recovered, follower map[string]float64, catchup time.Duration, acks int) {
	d := func(name string) float64 { return after[name] - before[name] }
	writes := d("parcc_engine_writes_total")
	r.setLayer("service.applies_per_write", d("parcc_engine_applies_total")/writes, "ratio")
	r.setLayer("wal.fsyncs_per_write", d("parcc_wal_fsyncs_total")/writes, "ratio")
	r.setLayer("wal.bytes_per_edge", d("parcc_wal_bytes_total")/(writes*writeBatch), "B")
	r.setLayer("wal.replay_edges_per_s",
		recovered["parcc_wal_replay_edges_total"]/recovered["parcc_wal_replay_seconds"], "1/s")
	groups := follower["parcc_repl_groups_total"]
	r.setLayer("repl.groups_per_s", groups/catchup.Seconds(), "1/s")
	r.setLayer("repl.frames_per_group", follower["parcc_repl_frames_total"]/math.Max(groups, 1), "ratio")
	r.setLayer("repl.reconnects", follower["parcc_repl_reconnects_total"], "count")
	fmt.Fprintf(os.Stderr, "perfbench: write window: %d acks, %.0f engine writes, %.0f applies\n",
		acks, writes, d("parcc_engine_applies_total"))
}

// writeLayers replays the acked write stream, in ack order, through the
// session (Solver.AddEdges/RemoveEdges + PublishSnapshot on an attached
// session), then through an in-process Engine with a WAL and its HTTP
// handler.  The handler half alternates with single-connection writes to
// the idle primary, so the layer-sum check compares the two under the same
// disk state.
func (r *run) writeLayers(g *parcc.Graph, log *ackLog, base string, w *writer) error {
	acks := append([]ack(nil), log.acks...)
	s, err := parcc.NewSolver(servedOptions())
	if err != nil {
		return err
	}
	defer s.Close()
	if err := s.Attach(g.Clone()); err != nil {
		return err
	}
	if _, err := s.PublishSnapshot(); err != nil {
		return err
	}
	var add, rem, pub samples
	var forest, nonForest, scans, splits, fallbacks int64
	for _, a := range acks {
		req := r.spans.newReq()
		t0 := time.Now()
		if a.remove {
			err = s.RemoveEdges(a.edges)
		} else {
			err = s.AddEdges(a.edges)
		}
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("session replay: %w", err)
		}
		if _, err := s.PublishSnapshot(); err != nil {
			return err
		}
		t2 := time.Now()
		root := r.spans.add(req, 0, "session.write", t0, t2)
		pub = append(pub, us(t2.Sub(t1)))
		r.spans.add(req, root, "snapshot.publish", t1, t2)
		if a.remove {
			r.spans.add(req, root, "session.remove", t0, t1)
			rem = append(rem, us(t1.Sub(t0)))
			if tr := s.LastTrace(); tr != nil && tr.Incremental != nil {
				in := tr.Incremental
				forest += in.ForestDeletes
				nonForest += in.NonForestDeletes
				scans += in.ReplaceScans
				splits += in.Splits
				fallbacks += in.BudgetFallbacks
			}
		} else {
			r.spans.add(req, root, "session.add", t0, t1)
			add = append(add, us(t1.Sub(t0)))
		}
	}
	deletes := float64(forest + nonForest)
	r.setLayer("session.add_us", add.median(), "us")
	r.setLayer("session.remove_us", rem.median(), "us")
	r.setLayer("snapshot.publish_us", pub.median(), "us")
	r.setLayer("dynconn.forest_delete_share", float64(forest)/math.Max(deletes, 1), "ratio")
	r.setLayer("dynconn.replace_scans_per_delete", float64(scans)/math.Max(deletes, 1), "ratio")
	r.setLayer("dynconn.splits", float64(splits), "count")
	r.setLayer("dynconn.budget_fallbacks", float64(fallbacks), "count")

	// The engine and its handler, with a WAL at ccserved's default flush
	// policy; the first half of the stream goes through Engine calls, the
	// second through the handler, so every write applies exactly once.
	dir := filepath.Join(r.work, "wal", "inproc")
	eng := service.New(service.Options{Solver: servedOptions(), WALDir: dir})
	defer eng.Close()
	if err := eng.Create("w", g.Clone()); err != nil {
		return err
	}
	h := service.NewHandler(eng)
	var engW, hAll, hAdd, hRem, e2e samples
	var body []byte
	for i, a := range acks {
		if i < len(acks)/2 {
			req := r.spans.newReq()
			t0 := time.Now()
			if a.remove {
				err = eng.RemoveEdges("w", a.edges)
			} else {
				err = eng.AddEdges("w", a.edges)
			}
			t1 := time.Now()
			r.spans.add(req, 0, "service.write", t0, t1)
			if err != nil {
				return fmt.Errorf("engine replay: %w", err)
			}
			engW = append(engW, us(t1.Sub(t0)))
			continue
		}
		body = edgesBody(body, a.edges)
		url, name := "/graphs/w/edges", "http.handler.add"
		if a.remove {
			url, name = "/graphs/w/edges/remove", "http.handler.remove"
		}
		d, code := r.serveOnce(h, "POST", url, body, name)
		r.acct.check(code == http.StatusOK, "handler", "in-process POST %s: status %d", url, code)
		hAll = append(hAll, us(d))
		if a.remove {
			hRem = append(hRem, us(d))
		} else {
			hAdd = append(hAdd, us(d))
		}
		if len(e2e) < probeReps/4 {
			e2e = append(e2e, 1000*w.write(r, base, log))
		}
	}
	r.setLayer("service.write_us", engW.median(), "us")
	r.setLayer("http.handler_us.add", hAdd.median(), "us")
	r.setLayer("http.handler_us.remove", hRem.median(), "us")
	r.sumCheck("write", r.healthzUS+hAll.median(), e2e.median())
	return nil
}

// layerSums prints every span name's median self time.
func (r *run) layerSums() {
	self := r.spans.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "perfbench: span %-28s median self %10.1f us\n", n, self[n]/1e3)
	}
}
