package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// sut is the system under test as the load generator sees it: a base URL,
// a pid whose /proc entries give CPU and memory, and the crash drill's
// three verbs. The process implementation below runs a shipped binary;
// tests substitute an in-process stack behind the same interface.
type sut interface {
	start(ctx context.Context) error // (re)start on the same data directory and wait for /healthz
	baseURL() string
	pid() int
	kill()       // SIGKILL, no shutdown work
	stop() error // graceful stop: the binaries snapshot and close their store
	storeDir() string
}

const adminKey = "bench-admin-key"

// procSUT runs one shipped binary in durable mode on a loopback port.
type procSUT struct {
	bin     string
	args    []string // everything except -listen
	store   string   // directory holding the point WAL and snapshot
	logPath string

	url  string
	cmd  *exec.Cmd
	done chan struct{} // closed once cmd.Wait returned
}

func newProcSUT(w workload, binDir, dataDir, logPath string) *procSUT {
	s := &procSUT{bin: filepath.Join(binDir, w.binary), store: dataDir, logPath: logPath}
	switch w.binary {
	case binServer:
		s.store = filepath.Join(dataDir, "tsdb")
		// Quotas are raised so that the limiter and the series quota sit
		// on the request path and never reject.
		s.args = []string{"-data-dir", dataDir, "-admin-key", adminKey, "-wal-sync", w.walSync,
			"-job-workers", "1", "-default-max-series", "1000000",
			"-default-rate", "1000000", "-default-burst", "1000000"}
	default:
		s.args = []string{"-data-dir", dataDir, "-wal-sync", w.walSync}
	}
	return s
}

func (s *procSUT) baseURL() string  { return s.url }
func (s *procSUT) storeDir() string { return s.store }

func (s *procSUT) pid() int {
	if s.cmd == nil || s.cmd.Process == nil {
		return 0
	}
	return s.cmd.Process.Pid
}

// freeAddr asks the kernel for an unused loopback port by binding :0.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func (s *procSUT) start(ctx context.Context) error {
	addr, err := freeAddr()
	if err != nil {
		return fmt.Errorf("finding a free port: %w", err)
	}
	logf, err := os.OpenFile(s.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(s.bin, append([]string{"-listen", addr}, s.args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Own process group, and a kill from the kernel if this process dies
	// without running its exit paths.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	// Pdeathsig fires when the starting thread exits, so pin it.
	runtime.LockOSThread()
	err = cmd.Start()
	runtime.UnlockOSThread()
	if err != nil {
		return fmt.Errorf("starting %s: %w", s.bin, err)
	}
	s.cmd, s.url, s.done = cmd, "http://"+addr, make(chan struct{})
	children.add(cmd.Process.Pid)
	go func(done chan struct{}) {
		cmd.Wait()
		children.remove(cmd.Process.Pid)
		close(done)
	}(s.done)
	return waitHealthy(ctx, s.url, s.done)
}

// waitHealthy polls /healthz until it answers 200, the process exits, or
// ten seconds pass.
func waitHealthy(ctx context.Context, url string, exited <-chan struct{}) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-exited:
			return errors.New("SUT exited before /healthz answered")
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if resp, err := client.Get(url + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("SUT did not answer /healthz within 10s")
}

func (s *procSUT) kill() {
	if s.cmd == nil {
		return
	}
	syscall.Kill(-s.cmd.Process.Pid, syscall.SIGKILL)
	<-s.done
}

func (s *procSUT) stop() error {
	if s.cmd == nil {
		return nil
	}
	syscall.Kill(s.cmd.Process.Pid, syscall.SIGTERM)
	select {
	case <-s.done:
		return nil
	case <-time.After(20 * time.Second):
		s.kill()
		return errors.New("SUT ignored SIGTERM for 20s; killed")
	}
}

// children tracks every live child and every data directory, so that any
// exit path, a signal included, can kill and remove what is still there.
var children = &childSet{pids: map[int]bool{}, dirs: map[string]bool{}}

type childSet struct {
	mu   sync.Mutex
	pids map[int]bool
	dirs map[string]bool
}

func (c *childSet) add(pid int)       { c.mu.Lock(); c.pids[pid] = true; c.mu.Unlock() }
func (c *childSet) remove(pid int)    { c.mu.Lock(); delete(c.pids, pid); c.mu.Unlock() }
func (c *childSet) addDir(dir string) { c.mu.Lock(); c.dirs[dir] = true; c.mu.Unlock() }

func (c *childSet) removeDir(dir string) {
	os.RemoveAll(dir)
	c.mu.Lock()
	delete(c.dirs, dir)
	c.mu.Unlock()
}

func (c *childSet) killAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for pid := range c.pids {
		syscall.Kill(-pid, syscall.SIGKILL)
	}
	for dir := range c.dirs {
		os.RemoveAll(dir)
	}
}

// buildSUT compiles the shipped binaries from the checkout's source into
// binDir and reports their -version lines.
func buildSUT(repoRoot, binDir string) (versions map[string]string, seconds float64, err error) {
	start := time.Now()
	abs, err := filepath.Abs(binDir)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command("go", "build", "-o", abs+string(filepath.Separator),
		"./cmd/"+binWorker, "./cmd/"+binServer)
	cmd.Dir = repoRoot
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, 0, fmt.Errorf("go build: %v\n%s", err, out)
	}
	seconds = time.Since(start).Seconds()
	versions = map[string]string{}
	for _, b := range []string{binWorker, binServer} {
		out, err := exec.Command(filepath.Join(abs, b), "-version").Output()
		if err != nil {
			return nil, 0, fmt.Errorf("%s -version: %w", b, err)
		}
		versions[b] = strings.TrimSpace(string(out))
	}
	return versions, seconds, nil
}

// Readers of /proc. A pid of 0 or a vanished process reads as zero; the
// failed requests around it are what mark the run as failed.

// cpuSeconds is utime+stime of a process from /proc/<pid>/stat.
func cpuSeconds(pid int) float64 {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 of the remainder.
	i := strings.LastIndexByte(string(data), ')')
	f := strings.Fields(string(data[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100 // USER_HZ is 100 on Linux
}

// statusKB reads one "Key:  N kB" line of /proc/<pid>/status.
func statusKB(pid int, key string) float64 {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			v, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return v
		}
	}
	return 0
}

// hostCPU returns the machine's total and stolen jiffies from /proc/stat.
func hostCPU() (total, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// walBytes sums the sizes of the WAL segment files in dir.
func walBytes(dir string) int64 {
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	var n int64
	for _, p := range segs {
		if fi, err := os.Stat(p); err == nil {
			n += fi.Size()
		}
	}
	return n
}
