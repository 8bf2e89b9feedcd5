package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// findRoot walks up from the working directory to the repository root: the
// directory whose go.mod declares module repro.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(bytes.TrimSpace(b), []byte("module repro\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod declaring module repro above the working directory")
		}
		dir = parent
	}
}

// buildEarthd compiles cmd/earthd into workDir. The path is stable, so a
// second run finds the binary up to date and go build does no work; build
// time is in no metric.
func buildEarthd(root, workDir string) (string, error) {
	bin := filepath.Join(workDir, "earthd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/earthd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/earthd: %v\n%s", err, out)
	}
	return bin, nil
}

// cleanup tracks what must not outlive the benchmark: earthd children and
// the run's scratch directories. Every exit path funnels through run():
// a normal return, an error, a panic on the main goroutine (deferred), and
// SIGINT/SIGTERM/SIGHUP/SIGPIPE (the handler below). A panic on another
// goroutine or a SIGKILL skips all of that; Pdeathsig covers the children
// there.
type cleanup struct {
	mu      sync.Mutex
	daemons map[*daemon]bool
	scratch string // this process's scratch directory, once claimed
}

var janitor = &cleanup{daemons: map[*daemon]bool{}}

func (c *cleanup) setScratch(dir string) {
	c.mu.Lock()
	c.scratch = dir
	c.mu.Unlock()
}

func (c *cleanup) run() {
	c.mu.Lock()
	ds := make([]*daemon, 0, len(c.daemons))
	for d := range c.daemons {
		ds = append(ds, d)
	}
	scratch := c.scratch
	c.mu.Unlock()
	for _, d := range ds {
		d.kill()
	}
	if scratch != "" {
		os.RemoveAll(scratch)
	}
}

// handleSignals turns the signals that would otherwise end the process
// without running deferred calls into a cleanup and a conventional exit
// status. SIGPIPE is among them: with it caught, a write to a closed
// stdout fails with EPIPE instead of killing the process mid-run.
func handleSignals() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP, syscall.SIGPIPE)
	go func() {
		sig := <-ch
		janitor.run()
		os.Exit(128 + int(sig.(syscall.Signal)))
	}()
}

// daemon is one running earthd child.
type daemon struct {
	pid    int
	url    string
	exited chan struct{} // closed once the child has been reaped
	tail   *logTail
}

var listenRE = regexp.MustCompile(`listening on (127\.0\.0\.1:\d+)`)

// startDaemon execs earthd on a loopback port of the kernel's choosing and
// returns once /healthz answers 200. The child leads its own process group
// so one kill reaches anything it might start.
func startDaemon(bin string, flags []string) (*daemon, error) {
	args := append([]string{"-addr", "127.0.0.1:0"}, flags...)
	d := &daemon{exited: make(chan struct{}), tail: &logTail{}}
	addr := make(chan string, 1)
	started := make(chan error, 1)
	go func() {
		// Pdeathsig fires when the forking thread exits, not the process:
		// pin this goroutine to its thread for the child's whole life.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		cmd := exec.Command(bin, args...)
		cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
		stderr, err := cmd.StderrPipe()
		if err == nil {
			err = cmd.Start()
		}
		if err != nil {
			started <- err
			return
		}
		d.pid = cmd.Process.Pid
		started <- nil
		// earthd logs to stderr at its default level (a line per request);
		// drain it so the child never blocks on a full pipe.
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			d.tail.add(line)
			if !announced {
				if m := listenRE.FindStringSubmatch(line); m != nil {
					announced = true
					addr <- m[1]
				}
			}
		}
		_ = cmd.Wait() // the exit status of a child we kill carries no information
		close(d.exited)
	}()
	if err := <-started; err != nil {
		return nil, fmt.Errorf("start earthd: %w", err)
	}
	janitor.mu.Lock()
	janitor.daemons[d] = true
	janitor.mu.Unlock()

	select {
	case a := <-addr:
		d.url = "http://" + a
	case <-d.exited:
		d.kill()
		return nil, fmt.Errorf("earthd exited before listening:\n%s", d.tail)
	case <-time.After(20 * time.Second):
		d.kill()
		return nil, fmt.Errorf("earthd never announced its address:\n%s", d.tail)
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := http.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("earthd /healthz never answered 200 (last error: %v)", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop asks earthd to drain (SIGTERM), so a journal closes cleanly, and
// falls back to kill if it has not gone within five seconds.
// Stopping a daemon that is already gone does nothing.
func (d *daemon) stop() {
	if d.gone() {
		return
	}
	_ = syscall.Kill(-d.pid, syscall.SIGTERM)
	select {
	case <-d.exited:
		d.forget()
	case <-time.After(5 * time.Second):
		d.kill()
	}
}

// kill ends the child's whole process group and waits until it is reaped.
func (d *daemon) kill() {
	if d.gone() {
		return
	}
	_ = syscall.Kill(-d.pid, syscall.SIGKILL)
	<-d.exited
	d.forget()
}

func (d *daemon) gone() bool {
	select {
	case <-d.exited:
		return true
	default:
		return false
	}
}

func (d *daemon) forget() {
	janitor.mu.Lock()
	delete(janitor.daemons, d)
	janitor.mu.Unlock()
}

// getJSON decodes a GET endpoint of the daemon into v.
func (d *daemon) getJSON(path string, v any) error {
	resp, err := http.Get(d.url + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// registry is the part of /metrics.json the benchmark reads.
type registry struct {
	Counters []struct {
		Name  string `json:"name"`
		Value int64  `json:"value"`
	} `json:"counters"`
	Histograms []struct {
		Name  string `json:"name"`
		Count int64  `json:"count"`
		Sum   int64  `json:"sum"`
	} `json:"histograms"`
}

// scrape flattens /metrics.json: counters by name, histograms as
// "<name>.sum" and "<name>.count". All of them only grow, so the measured
// window's share is the difference of two scrapes.
func (d *daemon) scrape() (map[string]int64, error) {
	var r registry
	if err := d.getJSON("/metrics.json", &r); err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, c := range r.Counters {
		out[c.Name] = c.Value
	}
	for _, h := range r.Histograms {
		out[h.Name+".sum"] = h.Sum
		out[h.Name+".count"] = h.Count
	}
	return out, nil
}

// health is the part of /healthz the benchmark reads.
type health struct {
	Journal *struct {
		Lag         int   `json:"lag"`
		Segments    int   `json:"segments"`
		Compactions int64 `json:"compactions"`
	} `json:"journal"`
}

// cpuSeconds is the child's user+system CPU time so far, from
// /proc/<pid>/stat.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th overall.
	rest := string(b[bytes.LastIndexByte(b, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", d.pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable /proc/%d/stat", d.pid)
	}
	const clockTicksPerSecond = 100 // USER_HZ, fixed at 100 on every Linux ABI Go supports
	return (utime + stime) / clockTicksPerSecond, nil
}

// peakRSSMB is the child's resident-set high-water mark (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.pid)
}

// logTail keeps the child's last log lines for failure reports.
type logTail struct {
	mu    sync.Mutex
	lines []string
}

func (t *logTail) add(line string) {
	t.mu.Lock()
	t.lines = append(t.lines, line)
	if len(t.lines) > 20 {
		t.lines = t.lines[len(t.lines)-20:]
	}
	t.mu.Unlock()
}

func (t *logTail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, "\n")
}
