package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"parcc"
)

// server is one ccserved subprocess.  The benchmark passes it deployment
// flags only (-addr, -wal-dir, -follow), so every default ships as
// measured.
type server struct {
	cmd  *exec.Cmd
	base string        // http://127.0.0.1:port
	done chan struct{} // closed once the process has been reaped
}

// procSet owns every subprocess of the run, so all of them are killed
// and reaped on every exit path.
type procSet struct {
	mu   sync.Mutex
	live []*server
}

func (p *procSet) killAll() {
	p.mu.Lock()
	live := p.live
	p.live = nil
	p.mu.Unlock()
	for _, s := range live {
		s.kill()
	}
}

// start launches ccserved with the given deployment flags on a free
// loopback port; its log goes to <work>/<tag>.log.
func (r *run) start(tag string, flags ...string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	logf, err := os.Create(filepath.Join(r.work, tag+".log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(r.ccserved, append([]string{"-addr", addr}, flags...)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// If the benchmark dies on a path that skips procSet.killAll (a
	// panic, SIGKILL), the kernel still kills the server.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start ccserved: %w", err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a killed server carries nothing
		close(s.done)
	}()
	r.procs.mu.Lock()
	r.procs.live = append(r.procs.live, s)
	r.procs.mu.Unlock()
	return s, nil
}

// kill sends SIGKILL and waits until the process has been reaped.
func (s *server) kill() {
	_ = s.cmd.Process.Signal(syscall.SIGKILL) // fails only if already exited
	<-s.done
}

func (r *run) stop(s *server) {
	s.kill()
	r.procs.mu.Lock()
	defer r.procs.mu.Unlock()
	for i, x := range r.procs.live {
		if x == s {
			r.procs.live = append(r.procs.live[:i], r.procs.live[i+1:]...)
			break
		}
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// hwmMB returns the process's peak resident set (VmHWM) in MB.
func hwmMB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 { // "<n> kB"
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

func (s *server) hwm() (float64, error) { return hwmMB(strconv.Itoa(s.cmd.Process.Pid)) }

// newClient returns an HTTP client holding one keep-alive connection:
// each closed-loop worker uses its own.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
}

var errExited = errors.New("ccserved exited")

// waitReady polls /readyz until it answers 200, the process exits or the
// timeout passes.
func (s *server) waitReady(c *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-s.done:
			return errExited
		default:
		}
		resp, err := c.Get(s.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %v", s.base, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// do sends one request and returns the body; a non-2xx status is an error.
func do(c *http.Client, method, url string, body []byte, buf *bytes.Buffer) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return nil
}

// graphBody encodes the PUT /graphs/{name} body.
func graphBody(g *parcc.Graph) []byte {
	b := make([]byte, 0, 24*len(g.Edges)+32)
	b = append(b, `{"n":`...)
	b = strconv.AppendInt(b, int64(g.N), 10)
	b = append(b, ',')
	return appendEdges(b, g.Edges)
}

// edgesBody encodes a POST .../edges or .../edges/remove body into b.
func edgesBody(b []byte, batch []parcc.Edge) []byte {
	return appendEdges(append(b[:0], '{'), batch)
}

// appendEdges appends `"edges":[[u,v],...]}`.
func appendEdges(b []byte, edges []parcc.Edge) []byte {
	b = append(b, `"edges":[`...)
	for i, e := range edges {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(e.U), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(e.V), 10)
		b = append(b, ']')
	}
	return append(b, "]}"...)
}

// answer is the union of the point-read and write response bodies.
type answer struct {
	Connected  *bool   `json:"connected"`
	Component  *int32  `json:"component"`
	Size       *int    `json:"size"`
	Components *int    `json:"components"`
	Version    uint64  `json:"version"`
	Error      *string `json:"error"`
}

// snapshotLabels fetches the full label array and its version.
func snapshotLabels(c *http.Client, base, name string) ([]int32, uint64, error) {
	var buf bytes.Buffer
	if err := do(c, "GET", base+"/graphs/"+name+"/snapshot", nil, &buf); err != nil {
		return nil, 0, err
	}
	var body struct {
		Labels  []int32 `json:"labels"`
		Version uint64  `json:"version"`
	}
	if err := json.Unmarshal(buf.Bytes(), &body); err != nil {
		return nil, 0, err
	}
	return body.Labels, body.Version, nil
}

// scrape reads one ccserved /metrics page into name -> value, summing
// the per-shard series of a family.
func scrape(c *http.Client, base string) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := do(c, "GET", base+"/metrics", nil, &buf); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, nil
}
