package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one cmd/interfd process in -serve-only mode: the default
// 4-app mix profiled at startup, an 8-host x 2-slot cluster, and the
// 600-iteration search budget.
type daemon struct {
	cmd  *exec.Cmd
	dir  string
	base string // http://host:port
	logs tailBuffer
	done chan error // receives the Wait result once
}

// startDaemon spawns the daemon and returns once /readyz answers 200,
// with the spawn-to-ready time.
func (r *run) startDaemon() (*daemon, time.Duration, error) {
	tmp := r.buildDir("tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, 0, err
	}
	dir, err := os.MkdirTemp(tmp, "interfd-")
	if err != nil {
		return nil, 0, err
	}
	addrFile := filepath.Join(dir, "addr")
	d := &daemon{dir: dir, done: make(chan error, 1)}
	d.cmd = exec.Command(r.buildDir("bin", "interfd"), "-serve-only",
		"-listen", "127.0.0.1:0", "-addr-file", addrFile,
		"-report", "", "-drift-audit", "", "-log-level", "error")
	d.cmd.Dir = dir
	d.cmd.Stdout = &d.logs
	d.cmd.Stderr = &d.logs
	// The daemon must not outlive the benchmark, even if it is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, 0, fmt.Errorf("start interfd: %w", err)
	}
	go func() { d.done <- d.cmd.Wait() }()

	deadline := t0.Add(60 * time.Second)
	for d.base == "" {
		if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
			d.base = "http://" + strings.TrimSpace(string(b))
			break
		}
		if err := d.wait(deadline); err != nil {
			return nil, 0, err
		}
	}
	client := &http.Client{Timeout: 5 * time.Second}
	for {
		resp, err := client.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				client.CloseIdleConnections()
				return d, time.Since(t0), nil
			}
		}
		if err := d.wait(deadline); err != nil {
			return nil, 0, err
		}
	}
}

// wait sleeps one poll interval, failing if the daemon exited or the
// deadline passed (the daemon is stopped in both cases).
func (d *daemon) wait(deadline time.Time) error {
	select {
	case err := <-d.done:
		d.done <- err
		d.stop()
		return fmt.Errorf("interfd exited during startup (%v): %s", err, d.logs.String())
	case <-time.After(time.Millisecond):
	}
	if time.Now().After(deadline) {
		d.stop()
		return errors.New("interfd not ready within 60s: " + d.logs.String())
	}
	return nil
}

// peakRSSMB reads the daemon's peak resident set size.
func (d *daemon) peakRSSMB() (float64, error) {
	return peakRSSMB(d.cmd.Process.Pid)
}

// stop terminates the daemon, waits for it to exit and removes its
// scratch directory.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	os.RemoveAll(d.dir)
}

// scrape reads the daemon's Prometheus exposition into series -> value.
func (d *daemon) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// peakRSSMB reads a process's peak resident set size (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// resetPeakRSS restarts this process's peak-RSS (VmHWM) accounting, so
// a later peakRSSMB covers only what runs in between.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// tailBuffer keeps the last 4 KiB written to it.
type tailBuffer struct {
	mu sync.Mutex
	b  []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.b = append(t.b, p...)
	if over := len(t.b) - 4096; over > 0 {
		t.b = t.b[over:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.b)
}
