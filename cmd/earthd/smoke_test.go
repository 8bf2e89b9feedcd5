package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// TestBinarySmoke boots the real earthd binary on an ephemeral port, submits
// one good and one malformed job over HTTP, reads the observability
// endpoints, and drains the daemon with SIGTERM: flag parsing, listener
// bootstrap, the HTTP surface and the signal path end to end, which no
// in-process test covers.
func TestBinarySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the earthd binary")
	}
	bin := filepath.Join(t.TempDir(), "earthd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-shards", "2")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// The reader owns log until it closes logDone at the daemon's exit.
	var log strings.Builder
	addr := make(chan string, 1)
	logDone := make(chan struct{})
	go func() {
		defer close(logDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			log.WriteString(line + "\n")
			if _, rest, ok := strings.Cut(line, "listening on "); ok && len(addr) == 0 {
				addr <- strings.Fields(rest)[0]
			}
		}
	}()
	// On any exit from the test: stop the daemon if it still runs, and on
	// failure show its log.
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-logDone
		cmd.Wait()
		if t.Failed() {
			t.Logf("earthd log:\n%s", log.String())
		}
	})

	var base string
	select {
	case a := <-addr:
		base = "http://" + a
	case <-logDone:
		t.Fatal("earthd exited without announcing its address")
	case <-time.After(30 * time.Second):
		t.Fatal("earthd never announced its address")
	}
	client := &http.Client{Timeout: 2 * time.Minute}
	do := func(method, path, body string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(method, base+path, strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		return resp.StatusCode, string(b)
	}

	code, body := do("POST", "/jobs", `{"benchmark":"power","quick":true,"nodes":4}`)
	if code != 200 {
		t.Fatalf("good job -> %d (want 200): %s", code, body)
	}
	var first server.JobResult
	if err := json.Unmarshal([]byte(body), &first); err != nil || first.JobID == "" {
		t.Fatalf("good job's result carries no job id (%v): %s", err, body)
	}
	if code, body := do("POST", "/jobs", `{"benchmark":"no-such-benchmark"}`); code != 400 {
		t.Fatalf("malformed job -> %d (want 400): %s", code, body)
	}
	if _, body := do("GET", "/buildinfo", ""); !strings.Contains(body, `"go_version"`) {
		t.Fatalf("/buildinfo missing go_version: %s", body)
	}

	// The first job compiled cold: its compile span carries the measured
	// compile.* phases.
	_, body = do("GET", "/jobs/"+first.JobID+"/timeline", "")
	var tl obs.Timeline
	if err := json.Unmarshal([]byte(body), &tl); err != nil {
		t.Fatalf("first job's timeline: %v: %s", err, body)
	}
	phases := 0
	for _, sp := range tl.Spans {
		for _, ch := range sp.Children {
			if sp.Kind == obs.KindCompile && strings.HasPrefix(ch.Kind, obs.CompilePhasePrefix) {
				phases++
			}
		}
	}
	if phases == 0 {
		t.Fatalf("first job's compile span has no %s* children: %s", obs.CompilePhasePrefix, body)
	}

	// A completed job's timeline is retained with its queue.wait and
	// sim.run stages, and /metrics.json carries the per-stage histograms.
	if code, body := do("POST", "/jobs", `{"id":"smoke-tl","benchmark":"power","quick":true,"nodes":4}`); code != 200 {
		t.Fatalf("smoke-tl job -> %d (want 200): %s", code, body)
	}
	_, text := do("GET", "/jobs/smoke-tl/timeline?format=text", "")
	for _, stage := range []string{obs.KindQueueWait, obs.KindSimRun} {
		if !strings.Contains(text, stage) {
			t.Fatalf("timeline missing %s span:\n%s", stage, text)
		}
	}
	if _, body := do("GET", "/metrics.json", ""); !strings.Contains(body, `earthd_stage_ns{stage=\"sim.run\"}`) {
		t.Fatal("/metrics.json missing the sim.run stage histogram")
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	<-logDone
	if err := cmd.Wait(); err != nil {
		t.Fatalf("dirty exit after SIGTERM: %v", err)
	}
	if !strings.Contains(log.String(), "drained cleanly") {
		t.Fatal("no clean-drain message in the log")
	}
}
