// Package svc runs relcalcd, flowrel's query server, as a child process
// for the benchmark: it builds the binary from the tree under test, starts
// it on an ephemeral port, waits until it is ready, reads its /statsz and
// /debug/vars, and stops it.
package svc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Build compiles root's cmd/relcalcd into dir and returns the binary.
func Build(root, dir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(dir, "relcalcd"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/relcalcd")
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building relcalcd: %v\n%s", err, stderr.String())
	}
	return bin, nil
}

// Server is one running relcalcd child process.
type Server struct {
	// URL is the server's base URL, http://host:port.
	URL  string
	cmd  *exec.Cmd
	done chan struct{}
	err  error // the child's exit status, valid once done is closed
}

// Start launches bin on an ephemeral loopback port, reads the bound
// address from the -addr-file it writes into dir, and waits until
// /readyz answers 200.
func Start(bin, dir string) (*Server, error) {
	addrFile := filepath.Join(dir, fmt.Sprintf("relcalcd-%d.addr", time.Now().UnixNano()))
	defer os.Remove(addrFile)
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	cmd.Stdout = io.Discard
	cmd.Stderr = io.Discard
	// The server must not outlive a benchmark that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting relcalcd: %w", err)
	}
	s := &Server{cmd: cmd, done: make(chan struct{})}
	go func() {
		s.err = cmd.Wait()
		close(s.done)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			s.URL = "http://" + strings.TrimSpace(string(b))
			break
		}
		if err := s.waitStep(deadline); err != nil {
			return nil, err
		}
	}
	for {
		resp, err := http.Get(s.URL + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if err := s.waitStep(deadline); err != nil {
			return nil, err
		}
	}
}

// waitStep sleeps one polling interval while the child starts, and stops
// it with an error when it exited or the deadline passed.
func (s *Server) waitStep(deadline time.Time) error {
	select {
	case <-s.done:
		return fmt.Errorf("relcalcd exited during start-up: %v", s.err)
	case <-time.After(2 * time.Millisecond):
	}
	if time.Now().After(deadline) {
		_ = s.Stop()
		return fmt.Errorf("relcalcd not ready within the start-up deadline")
	}
	return nil
}

// Stop asks the server to drain (SIGINT), kills it if it has not exited
// within five seconds, and waits until the process has ended.
func (s *Server) Stop() error {
	select {
	case <-s.done:
		return nil
	default:
	}
	_ = s.cmd.Process.Signal(os.Interrupt)
	select {
	case <-s.done:
		return nil
	case <-time.After(5 * time.Second):
	}
	_ = s.cmd.Process.Kill()
	<-s.done
	return fmt.Errorf("relcalcd did not drain within 5s and was killed")
}

// CPUSeconds returns the user plus system CPU time the server has used,
// from /proc/<pid>/stat (Linux).
func (s *Server) CPUSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks.
	rest := string(b)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat times: %v %v", err1, err2)
	}
	const ticksPerSecond = 100 // USER_HZ on Linux
	return (ut + st) / ticksPerSecond, nil
}

// Histogram is one /statsz latency histogram (µs).
type Histogram struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
}

// Statsz is the part of relcalcd's /statsz the benchmark reads.
type Statsz struct {
	Requests  int64 `json:"requests"`
	Admission struct {
		Rejected int64 `json:"rejected"`
	} `json:"admission"`
	Latency   map[string]Histogram `json:"latency_us"`
	PlanCache struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"plan_cache"`
}

// MemStats is the part of /debug/vars memstats the benchmark reads.
type MemStats struct {
	TotalAlloc uint64 `json:"TotalAlloc"`
	NumGC      uint32 `json:"NumGC"`
}

// Snapshot is the server's state at one instant.
type Snapshot struct {
	Stats Statsz
	Mem   MemStats
	CPU   float64
}

// Snapshot reads /statsz, /debug/vars and the process CPU time.
func (s *Server) Snapshot(ctx context.Context) (Snapshot, error) {
	var snap Snapshot
	if err := s.getJSON(ctx, "/statsz", &snap.Stats); err != nil {
		return snap, err
	}
	var vars struct {
		Mem MemStats `json:"memstats"`
	}
	if err := s.getJSON(ctx, "/debug/vars", &vars); err != nil {
		return snap, err
	}
	snap.Mem = vars.Mem
	cpu, err := s.CPUSeconds()
	snap.CPU = cpu
	return snap, err
}

func (s *Server) getJSON(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.URL+path, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
