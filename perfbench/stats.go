package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// accounting counts operations attempted and failed across the whole run.
// A failure is a non-2xx status, a transport error or a verification
// mismatch; the first few of each kind are kept for the error report.
type accounting struct {
	attempted atomic.Int64
	failed    atomic.Int64

	mu    sync.Mutex
	first map[string]string
}

func (a *accounting) ok() { a.attempted.Add(1) }

// fail records one failed operation of the given kind.
func (a *accounting) fail(kind string, format string, args ...any) {
	a.attempted.Add(1)
	a.failed.Add(1)
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.first == nil {
		a.first = map[string]string{}
	}
	if _, seen := a.first[kind]; !seen {
		a.first[kind] = fmt.Sprintf(format, args...)
	}
}

// check records one verified operation: ok when the condition held.
func (a *accounting) check(cond bool, kind string, format string, args ...any) {
	if cond {
		a.ok()
		return
	}
	a.fail(kind, format, args...)
}

func (a *accounting) firstFailures() map[string]string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.first
}

// samples is a latency sample set.  A failed operation is recorded as
// +Inf, so it counts as missing every latency limit and is never dropped.
type samples []float64

func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	// Linear interpolation between closest ranks.
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if hi >= len(c) {
		hi = len(c) - 1
	}
	if math.IsInf(c[hi], 1) {
		return c[hi]
	}
	return c[lo] + (c[hi]-c[lo])*(pos-float64(lo))
}

func (s samples) median() float64 { return s.quantile(0.5) }

// again reports whether another repetition of a short measurement is due:
// at least minReps, then more while the repetitions so far took less than
// floor, up to maxReps.  Short set-ups and recoveries are thereby repeated
// often enough for a steady median on small inputs too.
func again(rep, minReps int, start time.Time, floor time.Duration) bool {
	const maxReps = 25
	return rep < minReps || (rep < maxReps && time.Since(start) < floor)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// samePartition reports whether two labelings induce the same partition
// (labels are compared up to renaming).  Labels are vertex ids, so a label
// outside [0, n) is a mismatch.
func samePartition(a, b []int32) bool {
	n := len(a)
	if n != len(b) {
		return false
	}
	fwd := make([]int32, n) // label+1 in b for each label of a; 0 = unseen
	bwd := make([]int32, n)
	for i := range a {
		x, y := a[i], b[i]
		if x < 0 || int(x) >= n || y < 0 || int(y) >= n {
			return false
		}
		if fwd[x] == 0 {
			fwd[x] = y + 1
		} else if fwd[x] != y+1 {
			return false
		}
		if bwd[y] == 0 {
			bwd[y] = x + 1
		} else if bwd[y] != x+1 {
			return false
		}
	}
	return true
}

// oracle is a reference partition: labels, component sizes (indexed by
// label) and the component count.
type oracle struct {
	labels []int32
	size   []int32
	count  int
}

func newOracle(labels []int32) *oracle {
	o := &oracle{labels: labels, size: make([]int32, len(labels))}
	for _, l := range labels {
		if o.size[l] == 0 {
			o.count++
		}
		o.size[l]++
	}
	return o
}

// component reports whether (label, size) is a correct answer for u: the
// served label names a vertex of u's component and the size matches.
func (o *oracle) component(u int, label int32, size int) bool {
	if label < 0 || int(label) >= len(o.labels) {
		return false
	}
	l := o.labels[u]
	return o.labels[label] == l && int(o.size[l]) == size
}

// span is one traced call into a layer.  Spans of one request share Req;
// Parent is the id of the span that caused it (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory and writes them out when the run ends.
// A nil-recording log (untraced runs) costs one branch per call.
type spanLog struct {
	on    bool
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newSpanLog(on bool) *spanLog { return &spanLog{on: on, epoch: time.Now()} }

// newReq returns a fresh request id.
func (l *spanLog) newReq() int64 { return l.next.Add(1) }

// add records a finished span and returns its id (0 when off).
func (l *spanLog) add(req, parent int64, name string, start, end time.Time) int64 {
	if !l.on {
		return 0
	}
	id := l.next.Add(1)
	l.mu.Lock()
	l.spans = append(l.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(l.epoch)), End: int64(end.Sub(l.epoch))})
	l.mu.Unlock()
	return id
}

// selfTimes returns, per span name, the median self time: the span's
// duration minus the part of it its children cover.
func (l *spanLog) selfTimes() map[string]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	child := map[int64]int64{}
	for _, s := range l.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	by := map[string]samples{}
	for _, s := range l.spans {
		by[s.Name] = append(by[s.Name], float64(s.End-s.Start-child[s.ID]))
	}
	out := map[string]float64{}
	for n, v := range by {
		out[n] = v.median()
	}
	return out
}

func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
