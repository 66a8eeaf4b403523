package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"time"

	"parcc"
	"parcc/internal/baseline"
)

const (
	conns     = 2   // closed-loop connections: the fixed client model, sized for a 2-vCPU host
	readShare = 0.3 // share of --seconds the read load measures
	// batchOps is the point queries per /batch request.  ccserved's batch
	// handler flushes its first result line before it has read the whole
	// request; Go's HTTP/1 server then discards the unread body, so any
	// request body beyond its 4 KiB read buffer loses its tail.  64 ops
	// (~1.8 KiB) stay below that; http.batch_max_ops tracks the limit.
	batchOps     = 64
	warmupCycles = 20 // discarded cycles per connection at the start of each slice
)

// readStats are read samples, merged across connections.
type readStats struct {
	single, batch samples
	ops           int64 // point queries answered, each batch op counted once
	window        time.Duration
}

func (s *readStats) merge(o readStats) {
	s.single = append(s.single, o.single...)
	s.batch = append(s.batch, o.batch...)
	s.ops += o.ops
	s.window += o.window
}

// reader is the serve-read phase: one GNM graph served by ccserved
// without a WAL.  Each connection repeats a cycle of GET connected, GET
// component, GET count and one /batch; every answer is checked against
// the oracle.
type reader struct {
	r      *run
	g      *parcc.Graph
	or     *oracle
	srv    *server
	conns  []*readConn
	plain  readStats // untraced slices
	traced readStats // traced slices (traced runs only)
}

// readConn is one connection's state, kept across slices so its seeded
// request sequence continues.
type readConn struct {
	cl   *http.Client
	rng  *rand.Rand
	buf  bytes.Buffer
	body []byte
	qs   []query
}

// readSetup times set-up, repeated: process start -> /readyz 200 -> PUT
// -> first correct read.  The last server stays up for the load.
func (r *run) readSetup() (*reader, error) {
	rd := &reader{r: r, g: parcc.GNM(r.cfg.readN, r.cfg.readM, r.seed+100)}
	rd.or = newOracle(baseline.UnionFindLabels(rd.g))
	body := graphBody(rd.g)
	ctl := newClient()
	defer ctl.CloseIdleConnections()
	var setups samples
	var buf bytes.Buffer
	for rep, begin := 0, time.Now(); again(rep, setupReps, begin, setupFloor); rep++ {
		if rd.srv != nil {
			r.stop(rd.srv)
		}
		ctl.CloseIdleConnections()
		t0 := time.Now()
		var err error
		if rd.srv, err = r.start("read-" + strconv.Itoa(rep)); err != nil {
			return nil, err
		}
		if err := rd.srv.waitReady(ctl, time.Minute); err != nil {
			return nil, err
		}
		if err := do(ctl, "PUT", rd.srv.base+"/graphs/r", body, &buf); err != nil {
			return nil, err
		}
		if err := do(ctl, "GET", rd.srv.base+"/graphs/r/count", nil, &buf); err != nil {
			return nil, err
		}
		var a answer
		if err := json.Unmarshal(buf.Bytes(), &a); err != nil || a.Components == nil || *a.Components != rd.or.count {
			return nil, fmt.Errorf("first read after PUT is wrong: %s", buf.Bytes())
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.setupServe = setups.median()
	r.setLayer("serve.setup_s", r.setupServe, "s")
	r.setE2E("setup_s", r.setupSolve+r.setupServe, "s")
	for c := 0; c < conns; c++ {
		rd.conns = append(rd.conns, &readConn{cl: newClient(), rng: rand.New(rand.NewPCG(r.seed, uint64(200+c)))})
	}
	return rd, nil
}

// slice runs the closed-loop read mix on every connection for window,
// after each connection's warm-up cycles.  In traced runs, traced slices
// record a span per request and untraced ones do not; the difference is
// the tracing overhead.
func (rd *reader) slice(window time.Duration, traced bool) {
	r := rd.r
	r.spans.on = traced
	defer func() { r.spans.on = r.traced }()
	var mu sync.Mutex
	var st readStats
	var wg sync.WaitGroup
	n := rd.g.N
	base := rd.srv.base
	for _, rc := range rd.conns {
		wg.Add(1)
		go func(rc *readConn) {
			defer wg.Done()
			var own readStats
			var deadline time.Time
			for cyc := 0; ; cyc++ {
				if cyc == warmupCycles {
					deadline = time.Now().Add(window)
				}
				rec := cyc >= warmupCycles
				if rec && time.Now().After(deadline) {
					break
				}
				for kind := 0; kind < 3; kind++ {
					u, v := rc.rng.IntN(n), rc.rng.IntN(n)
					lat, ok := r.pointRead(rc.cl, base+"/graphs/r", kind, u, v, rd.or, &rc.buf)
					if rec {
						own.single = append(own.single, lat)
						if ok {
							own.ops++
						}
					}
				}
				rc.body, rc.qs = batchBody(rc.body, rc.qs, rc.rng, n)
				lat, good := r.batchRead(rc.cl, base+"/graphs/r/batch", rc.body, rc.qs, rd.or, &rc.buf)
				if rec {
					own.batch = append(own.batch, lat)
					own.ops += int64(good)
				}
			}
			mu.Lock()
			st.merge(own)
			mu.Unlock()
		}(rc)
	}
	wg.Wait()
	st.window = window
	if traced {
		rd.traced.merge(st)
	} else {
		rd.plain.merge(st)
	}
}

// finish reports the read metrics and, traced, probes the read layers;
// then the server is stopped.
func (rd *reader) finish() error {
	r := rd.r
	defer r.stop(rd.srv)
	for _, rc := range rd.conns {
		rc.cl.CloseIdleConnections()
	}
	st := rd.plain
	if r.traced {
		p0, p1 := rd.plain.single.median(), rd.traced.single.median()
		r.setLayer("trace.overhead_pct", 100*(p1-p0)/p0, "%")
		st = rd.traced
	}
	r.readE2E = st
	r.setE2E("read_p50_ms", st.single.median(), "ms")
	r.setE2E("read_p99_ms", st.single.quantile(0.99), "ms")
	r.setE2E("batch_p50_ms", st.batch.median(), "ms")
	r.setE2E("read_qps", float64(st.ops)/st.window.Seconds(), "1/s")
	rss, err := rd.srv.hwm()
	if err != nil {
		return err
	}
	r.setE2E("rss_mb", rss, "MB")
	if r.traced {
		return r.readLayers(rd.g, rd.or, rd.srv.base)
	}
	return nil
}

// pointRead issues one GET (kind 0 connected, 1 component, 2 count) and
// checks its answer.  It returns the latency in ms (+Inf on failure).
func (r *run) pointRead(cl *http.Client, graphURL string, kind, u, v int, or *oracle, buf *bytes.Buffer) (float64, bool) {
	var url string
	switch kind {
	case 0:
		url = graphURL + "/connected?u=" + strconv.Itoa(u) + "&v=" + strconv.Itoa(v)
	case 1:
		url = graphURL + "/component?u=" + strconv.Itoa(u)
	default:
		url = graphURL + "/count"
	}
	req := r.spans.newReq()
	t0 := time.Now()
	err := do(cl, "GET", url, nil, buf)
	t1 := time.Now()
	r.spans.add(req, 0, "http.get", t0, t1)
	if err != nil {
		r.acct.fail("read", "%v", err)
		return math.Inf(1), false
	}
	var a answer
	if err := json.Unmarshal(buf.Bytes(), &a); err != nil {
		r.acct.fail("read", "decode %s: %v", url, err)
		return math.Inf(1), false
	}
	if !checkAnswer(&a, kind, u, v, or) {
		r.acct.fail("read", "wrong answer to %s: %s", url, bytes.TrimSpace(buf.Bytes()))
		return math.Inf(1), false
	}
	r.acct.ok()
	return ms(t1.Sub(t0)), true
}

func checkAnswer(a *answer, kind, u, v int, or *oracle) bool {
	switch kind {
	case 0:
		return a.Connected != nil && *a.Connected == (or.labels[u] == or.labels[v])
	case 1:
		return a.Component != nil && a.Size != nil && or.component(u, *a.Component, *a.Size)
	default:
		return a.Components != nil && *a.Components == or.count
	}
}

// query is one point read: kind 0 connected(u, v), 1 component(u),
// 2 count.
type query struct{ kind, u, v int }

var kindNames = [3]string{"connected", "component", "count"}

// batchBody encodes 256 NDJSON point queries, split evenly over the three
// kinds, and returns them alongside for verification.
func batchBody(b []byte, qs []query, rng *rand.Rand, n int) ([]byte, []query) {
	b, qs = b[:0], qs[:0]
	for i := 0; i < batchOps; i++ {
		q := query{kind: i % 3, u: rng.IntN(n), v: rng.IntN(n)}
		qs = append(qs, q)
		switch q.kind {
		case 0:
			b = append(b, `{"op":"connected","u":`...)
			b = strconv.AppendInt(b, int64(q.u), 10)
			b = append(b, `,"v":`...)
			b = strconv.AppendInt(b, int64(q.v), 10)
			b = append(b, "}\n"...)
		case 1:
			b = append(b, `{"op":"component","u":`...)
			b = strconv.AppendInt(b, int64(q.u), 10)
			b = append(b, "}\n"...)
		default:
			b = append(b, `{"op":"count"}`+"\n"...)
		}
	}
	return b, qs
}

// batchRead posts one batch and checks every result line; it returns the
// latency in ms (+Inf when any op failed) and the count of correct ops.
func (r *run) batchRead(cl *http.Client, url string, body []byte, qs []query, or *oracle, buf *bytes.Buffer) (float64, int) {
	req := r.spans.newReq()
	t0 := time.Now()
	err := do(cl, "POST", url, body, buf)
	t1 := time.Now()
	r.spans.add(req, 0, "http.batch", t0, t1)
	if err != nil {
		for range qs {
			r.acct.fail("batch", "%v", err)
		}
		return math.Inf(1), 0
	}
	res := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	good := 0
	for i, q := range qs {
		var a answer
		if i < len(res) && json.Unmarshal(res[i], &a) == nil && a.Error == nil && checkAnswer(&a, q.kind, q.u, q.v, or) {
			good++
			r.acct.ok()
		} else {
			r.acct.fail("batch", "op %+v -> %s", q, lineAt(res, i))
		}
	}
	if good < len(qs) {
		return math.Inf(1), good
	}
	return ms(t1.Sub(t0)), good
}

func lineAt(lines [][]byte, i int) string {
	if i < len(lines) {
		return string(lines[i])
	}
	return "<missing>"
}
