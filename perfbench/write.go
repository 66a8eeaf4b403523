package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"parcc"
	"parcc/internal/baseline"
)

const (
	writeBatch   = 8  // edges per durable write
	writeWarmup  = 20 // discarded read/write pairs per connection
	spotsPerConn = 24 // reads per connection checked exactly against the ack log
	readyTimeout = 2 * time.Minute
)

// ack is one acknowledged write, in the order the client received acks.
type ack struct {
	remove  bool
	edges   []parcc.Edge
	version uint64
}

// ackLog orders acknowledged writes across both connections.
type ackLog struct {
	mu      sync.Mutex
	acks    []ack
	maxVers uint64 // highest version any ack reported
}

func (l *ackLog) add(a ack) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.acks = append(l.acks, a)
	l.maxVers = max(l.maxVers, a.version)
}

// mark returns the number of acks so far and the highest version they
// reported.
func (l *ackLog) mark() (int, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.acks), l.maxVers
}

// spot is a read kept for exact checking after the window.  The served
// state must equal the acked-write prefix of length lo (all acks received
// before the read was sent) up to hi+1 (acks received before the answer,
// plus the other connection's write in flight).
type spot struct {
	q      query
	a      answer
	lo, hi int
}

// writeStats are the write window's samples.
type writeStats struct {
	writes, reads samples
	spots         []spot
	elapsed       time.Duration
}

// writes is the serve-write phase: ccserved with a WAL at its default
// flush policy (fsync per group).  Two closed-loop connections each
// alternate a point GET and an 8-edge durable write; inserts have uniform
// endpoints, deletes are drawn uniformly from the live edges the
// connection owns.  Afterwards the primary is repeatedly killed with
// SIGKILL and restarted on the same WAL, and fresh followers catch up
// from it.
type writes struct {
	r       *run
	g       *parcc.Graph
	walDir  string
	ctl     *http.Client
	primary *server // the running primary, original or recovered
	before  map[string]float64
	after   map[string]float64
	log     *ackLog
	ws      []*writer
	st      writeStats

	final     []int32 // baseline.IncOracle's partition after the window
	version   uint64  // the primary's version after the window
	recovers  samples
	catchups  samples
	recovered map[string]float64 // last recovered primary's /metrics
	follower  map[string]float64 // last caught-up follower's /metrics
}

func (r *run) writeSetup() (*writes, error) {
	w := &writes{r: r, g: parcc.GNM(r.cfg.writeN, r.cfg.writeM, r.seed+300),
		walDir: filepath.Join(r.work, "wal"), ctl: newClient(), log: &ackLog{}}
	var err error
	if w.primary, err = r.start("write-primary", "-wal-dir", w.walDir); err != nil {
		return nil, err
	}
	if err := w.primary.waitReady(w.ctl, readyTimeout); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := do(w.ctl, "PUT", w.primary.base+"/graphs/w", graphBody(w.g), &buf); err != nil {
		return nil, err
	}
	if w.before, err = scrape(w.ctl, w.primary.base); err != nil {
		return nil, err
	}
	w.ws = []*writer{r.newWriter(w.g, 0), r.newWriter(w.g, 1)}
	return w, nil
}

// finish ends the write window: the write metrics, the traced layer
// probes, the final state against baseline.IncOracle on the edge
// multiset, and the exact spot checks.
func (w *writes) finish() error {
	r := w.r
	for _, wr := range w.ws {
		wr.cl.CloseIdleConnections()
	}
	// Every durable write waits for an fsync on the checkout's disk, whose
	// latency drifts with the machine's other I/O by 20-50 % between runs,
	// so these are reported from the traced run and carry no bound.
	r.setLayer("write_p50_ms", w.st.writes.median(), "ms")
	r.setLayer("write_p99_ms", w.st.writes.quantile(0.99), "ms")
	r.setLayer("write_qps", float64(len(w.st.writes))/w.st.elapsed.Seconds(), "1/s")
	r.setLayer("mixed_read_p50_ms", w.st.reads.median(), "ms")
	var err error
	if w.after, err = scrape(w.ctl, w.primary.base); err != nil {
		return err
	}
	if r.traced {
		if err := r.writeLayers(w.g, w.log, w.primary.base, w.ws[0]); err != nil {
			return err
		}
	}

	// Adds then removes, each in one batch, give the same multiset as the
	// acked order: every remove named an occurrence live at its time.
	inc := baseline.NewIncOracle(w.g)
	var adds, removes []parcc.Edge
	for _, a := range w.log.acks {
		if a.remove {
			removes = append(removes, a.edges...)
		} else {
			adds = append(adds, a.edges...)
		}
	}
	if err := inc.AddEdges(adds); err != nil {
		return err
	}
	if err := inc.RemoveEdges(removes); err != nil {
		return err
	}
	w.final = inc.Labels()
	if w.version, err = r.checkPartition(w.ctl, w.primary.base, "final", w.final, 0); err != nil {
		return err
	}
	r.checkSpots(w.g, w.log.acks, w.st.spots)
	return nil
}

// crashCycles repeats, at least once and until d is spent: kill -9 the
// primary, restart it on the same WAL and time until /readyz answers 200;
// then start a fresh follower and time until it serves the last logged
// version.  A recovered session publishes once, one version past the last
// logged group, so nothing served before the crash is ever re-numbered.
func (w *writes) crashCycles(d time.Duration) error {
	r := w.r
	for start, first := time.Now(), true; first || time.Since(start) < d; first = false {
		r.stop(w.primary)
		t0 := time.Now()
		var err error
		if w.primary, err = r.start("write-recovered-"+strconv.Itoa(len(w.recovers)), "-wal-dir", w.walDir); err != nil {
			return err
		}
		if err := w.primary.waitReady(w.ctl, readyTimeout); err != nil {
			return err
		}
		w.recovers = append(w.recovers, time.Since(t0).Seconds())
		if _, err := r.checkPartition(w.ctl, w.primary.base, "recovered", w.final, w.version+1); err != nil {
			return err
		}

		t0 = time.Now()
		fol, err := r.start("follower-"+strconv.Itoa(len(w.catchups)), "-follow", w.primary.base)
		if err != nil {
			return err
		}
		if err := waitVersion(w.ctl, fol, w.version); err != nil {
			return err
		}
		w.catchups = append(w.catchups, time.Since(t0).Seconds())
		if _, err := r.checkPartition(w.ctl, fol.base, "follower", w.final, w.version); err != nil {
			return err
		}
		if r.traced {
			if w.follower, err = scrape(w.ctl, fol.base); err != nil {
				return err
			}
			if w.recovered, err = scrape(w.ctl, w.primary.base); err != nil {
				return err
			}
		}
		r.stop(fol)
	}
	return nil
}

// done reports recovery and catch-up and stops the primary.
func (w *writes) done() {
	r := w.r
	r.setE2E("recover_s", w.recovers.median(), "s")
	r.setE2E("catchup_s", w.catchups.median(), "s")
	if r.traced {
		r.writeCounters(w.before, w.after, w.recovered, w.follower,
			time.Duration(w.catchups.median()*float64(time.Second)), len(w.log.acks))
	}
	r.stop(w.primary)
	w.ctl.CloseIdleConnections()
}

// writer is one connection's closed-loop client state: the live edges it
// owns (the only edges it deletes, so deletes never race) and its buffers.
type writer struct {
	ops   int // measured read/write pairs so far
	cl    *http.Client
	rng   *rand.Rand
	g     *parcc.Graph
	owned []parcc.Edge
	batch []parcc.Edge
	body  []byte
	buf   bytes.Buffer
}

func (r *run) newWriter(g *parcc.Graph, c int) *writer {
	w := &writer{cl: newClient(), rng: rand.New(rand.NewPCG(r.seed, uint64(400+c))), g: g,
		batch: make([]parcc.Edge, writeBatch)}
	for i := c; i < len(g.Edges); i += conns {
		w.owned = append(w.owned, g.Edges[i])
	}
	return w
}

// write sends one 8-edge write: 1:1 insert or delete while the connection
// owns enough edges.  It returns the latency in ms (+Inf on failure).
func (w *writer) write(r *run, base string, log *ackLog) float64 {
	remove := w.rng.IntN(2) == 1 && len(w.owned) >= writeBatch
	for i := range w.batch {
		if remove {
			j := w.rng.IntN(len(w.owned))
			w.batch[i] = w.owned[j]
			w.owned[j] = w.owned[len(w.owned)-1]
			w.owned = w.owned[:len(w.owned)-1]
		} else {
			w.batch[i] = parcc.Edge{U: int32(w.rng.IntN(w.g.N)), V: int32(w.rng.IntN(w.g.N))}
		}
	}
	lat := r.durableWrite(w.cl, base, remove, w.batch, log, &w.body, &w.buf)
	if !remove && !math.IsInf(lat, 1) {
		w.owned = append(w.owned, w.batch...)
	}
	return lat
}

// slice runs ops read/write pairs on each connection (after the warm-up
// pairs, on the first slice).
func (w *writes) slice(ops int) {
	r := w.r
	var mu sync.Mutex
	var wg sync.WaitGroup
	var first, last time.Time
	stride := max(1, r.cfg.writeOps/spotsPerConn)
	base := w.primary.base
	for _, wr := range w.ws {
		wg.Add(1)
		go func(wr *writer) {
			defer wg.Done()
			if wr.ops == 0 {
				for i := 0; i < writeWarmup; i++ {
					r.versionedRead(wr.cl, base, wr.query(), w.log, &wr.buf)
					wr.write(r, base, w.log)
				}
			}
			var own writeStats
			t0 := time.Now()
			for i := 0; i < ops; i++ {
				lat, sp, ok := r.versionedRead(wr.cl, base, wr.query(), w.log, &wr.buf)
				own.reads = append(own.reads, lat)
				if ok && wr.ops%stride == 0 {
					own.spots = append(own.spots, sp)
				}
				own.writes = append(own.writes, wr.write(r, base, w.log))
				wr.ops++
			}
			t1 := time.Now()
			mu.Lock()
			w.st.writes = append(w.st.writes, own.writes...)
			w.st.reads = append(w.st.reads, own.reads...)
			w.st.spots = append(w.st.spots, own.spots...)
			if first.IsZero() || t0.Before(first) {
				first = t0
			}
			if t1.After(last) {
				last = t1
			}
			mu.Unlock()
		}(wr)
	}
	wg.Wait()
	w.st.elapsed += last.Sub(first)
}

// query draws the connection's next point read.
func (w *writer) query() query {
	return query{kind: w.rng.IntN(3), u: w.rng.IntN(w.g.N), v: w.rng.IntN(w.g.N)}
}

// versionedRead issues one point GET during the write window.  Every
// answer must report a version at least as new as any ack received
// before it was sent; the returned spot lets it be checked exactly later.
func (r *run) versionedRead(cl *http.Client, base string, q query, log *ackLog, buf *bytes.Buffer) (float64, spot, bool) {
	url := base + "/graphs/w"
	switch q.kind {
	case 0:
		url += "/connected?u=" + strconv.Itoa(q.u) + "&v=" + strconv.Itoa(q.v)
	case 1:
		url += "/component?u=" + strconv.Itoa(q.u)
	default:
		url += "/count"
	}
	lo, minVersion := log.mark()
	req := r.spans.newReq()
	t0 := time.Now()
	err := do(cl, "GET", url, nil, buf)
	t1 := time.Now()
	r.spans.add(req, 0, "http.get.mixed", t0, t1)
	hi, _ := log.mark()
	sp := spot{q: q, lo: lo, hi: hi}
	if err == nil {
		err = json.Unmarshal(buf.Bytes(), &sp.a)
	}
	if err != nil {
		r.acct.fail("mixed-read", "%v", err)
		return math.Inf(1), sp, false
	}
	if sp.a.Version < minVersion {
		r.acct.fail("mixed-read", "%s served version %d after an ack at version %d", url, sp.a.Version, minVersion)
		return math.Inf(1), sp, false
	}
	r.acct.ok()
	return ms(t1.Sub(t0)), sp, true
}

// durableWrite posts one 8-edge add or remove and logs its ack.
func (r *run) durableWrite(cl *http.Client, base string, remove bool, batch []parcc.Edge, log *ackLog, body *[]byte, buf *bytes.Buffer) float64 {
	url := base + "/graphs/w/edges"
	name := "http.add"
	if remove {
		url += "/remove"
		name = "http.remove"
	}
	*body = edgesBody(*body, batch)
	req := r.spans.newReq()
	t0 := time.Now()
	err := do(cl, "POST", url, *body, buf)
	t1 := time.Now()
	r.spans.add(req, 0, name, t0, t1)
	var a answer
	if err == nil {
		err = json.Unmarshal(buf.Bytes(), &a)
	}
	if err != nil {
		r.acct.fail("write", "%v", err)
		return math.Inf(1)
	}
	log.add(ack{remove: remove, edges: append([]parcc.Edge(nil), batch...), version: a.Version})
	r.acct.ok()
	return ms(t1.Sub(t0))
}

// checkPartition compares a server's full label array with the oracle's
// partition; with want > 0 it also requires that exact version.
func (r *run) checkPartition(c *http.Client, base, what string, want []int32, version uint64) (uint64, error) {
	labels, v, err := snapshotLabels(c, base, "w")
	if err != nil {
		return 0, fmt.Errorf("%s snapshot: %w", what, err)
	}
	r.acct.check(samePartition(labels, want), what, "%s partition differs from baseline.IncOracle", what)
	if version > 0 {
		r.acct.check(v == version, what, "%s serves version %d, want %d", what, v, version)
	}
	return v, nil
}

// waitVersion polls a follower until it answers at the given version.
func waitVersion(c *http.Client, s *server, version uint64) error {
	deadline := time.Now().Add(readyTimeout)
	var buf bytes.Buffer
	for {
		select {
		case <-s.done:
			return errExited
		default:
		}
		if do(c, "GET", s.base+"/graphs/w/count", nil, &buf) == nil {
			var a answer
			if json.Unmarshal(buf.Bytes(), &a) == nil && a.Version >= version {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower not at version %d after %v", version, readyTimeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkSpots replays the ack log and checks each kept read against the
// partitions the acked-write prefixes lo..hi+1 induce: the answer must
// match one of them.
func (r *run) checkSpots(g *parcc.Graph, acks []ack, spots []spot) {
	sort.Slice(spots, func(i, j int) bool { return spots[i].lo < spots[j].lo })
	live := newMultiset(g)
	at := 0
	cache := map[int]*oracle{}
	stateAt := func(k int) *oracle {
		if o, ok := cache[k]; ok {
			return o
		}
		for ; at < k; at++ {
			live.apply(acks[at])
		}
		o := newOracle(baseline.UnionFindLabels(&parcc.Graph{N: g.N, Edges: live.edges}))
		cache[k] = o
		return o
	}
	for _, sp := range spots {
		for k := range cache {
			if k < sp.lo {
				delete(cache, k)
			}
		}
		ok := false
		for k := sp.lo; k <= min(sp.hi+1, len(acks)) && !ok; k++ {
			ok = checkAnswer(&sp.a, sp.q.kind, sp.q.u, sp.q.v, stateAt(k))
		}
		r.acct.check(ok, "spot", "read %+v at version %d matches no acked prefix in [%d, %d]", sp.q, sp.a.Version, sp.lo, sp.hi+1)
	}
}

// multiset is the live edge multiset with O(1) removal of one occurrence.
type multiset struct {
	edges []parcc.Edge
	pos   map[int64][]int32 // canonical key -> indices into edges
}

func newMultiset(g *parcc.Graph) *multiset {
	m := &multiset{pos: make(map[int64][]int32, len(g.Edges))}
	for _, e := range g.Edges {
		m.add(e)
	}
	return m
}

func (m *multiset) add(e parcc.Edge) {
	k := e.CanonKey()
	m.pos[k] = append(m.pos[k], int32(len(m.edges)))
	m.edges = append(m.edges, e)
}

func (m *multiset) remove(e parcc.Edge) {
	k := e.CanonKey()
	idx := m.pos[k]
	i := idx[len(idx)-1]
	m.pos[k] = idx[:len(idx)-1]
	last := int32(len(m.edges) - 1)
	if i != last {
		moved := m.edges[last]
		m.edges[i] = moved
		mi := m.pos[moved.CanonKey()]
		for j := range mi {
			if mi[j] == last {
				mi[j] = i
				break
			}
		}
	}
	m.edges = m.edges[:last]
}

func (m *multiset) apply(a ack) {
	for _, e := range a.edges {
		if a.remove {
			m.remove(e)
		} else {
			m.add(e)
		}
	}
}
