package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/server"
)

// sample is one job as the load generator saw it.
type sample struct {
	Job     job
	Start   time.Duration // request written, since the list started
	Latency time.Duration // request written → response read
	// Err says why the job does not count as correct: a transport error, a
	// refusal or other non-200, or a response that differs from its
	// reference. Empty means correct.
	Err     string
	Refused bool // 429 or 503
	Result  server.JobResult
}

// end is when the response had been read.
func (s *sample) end() time.Duration { return s.Start + s.Latency }

// drive runs a closed loop: each of clients goroutines takes the next job,
// writes the request, reads and checks the whole response, and only then
// takes another, until next reports the list is over. That is how earthd's
// callers behave (earthload, paperbench, earthchaos and CI sweeps each
// wait for their reply), so a slower earthd is offered less load and
// queues never grow beyond the client count. There are no retries: a
// refusal is a failed job.
func drive(url string, clients int, expected map[string]expectedOutput, next func() (job, bool)) []sample {
	// One connection per client, kept alive: connection set-up is not part
	// of a job.
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}, Timeout: 2 * time.Minute}
	defer client.CloseIdleConnections()
	var mu sync.Mutex
	var out []sample
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j, ok := next()
				if !ok {
					return
				}
				s := sample{Job: j, Start: time.Since(t0)}
				status, body, err := post(client, url+"/jobs", j.Body)
				s.Latency = time.Since(t0) - s.Start
				// An edit-class job carries its whole source twice; judging
				// the response needs neither copy.
				s.Job.Body, s.Job.Req = nil, server.JobRequest{}
				switch {
				case err != nil:
					s.Err = "transport: " + err.Error()
				case status != http.StatusOK:
					s.Refused = status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
					s.Err = fmt.Sprintf("status %d: %s", status, bytes.TrimSpace(body))
				default:
					if err := json.Unmarshal(body, &s.Result); err != nil {
						s.Err = "undecodable response: " + err.Error()
					} else if want, ok := expected[j.Prog.key()]; !ok {
						s.Err = "no expected file for " + j.Prog.key()
					} else {
						s.Err = want.check(s.Result.Output, s.Result.MainRet)
					}
				}
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

func post(client *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// listOf serves a fixed list once.
func listOf(jobs []job) func() (job, bool) {
	var mu sync.Mutex
	i := 0
	return func() (job, bool) {
		mu.Lock()
		defer mu.Unlock()
		if i >= len(jobs) {
			return job{}, false
		}
		i++
		return jobs[i-1], true
	}
}

// untilDeadline serves the workload's seeded list until the measured
// window closes. Jobs in flight at that moment finish but fall outside the
// window (see summarize).
func untilDeadline(w *workload, seed int64, deadline time.Time) func() (job, bool) {
	var mu sync.Mutex
	i := 0
	return func() (job, bool) {
		if !time.Now().Before(deadline) {
			return job{}, false
		}
		mu.Lock()
		n := i
		i++
		mu.Unlock()
		return w.job(seed, n), true
	}
}

// checkVariants enforces the simulator's determinism from outside: every
// correct response of one variant must report the same simulated time and
// the same communication counts. Offenders are marked incorrect. It
// returns, per variant, the one agreed (time_ns, comm ops) pair.
func checkVariants(samples []sample) (simNs map[string]int64, commOps map[string]int64) {
	simNs, commOps = map[string]int64{}, map[string]int64{}
	for i := range samples {
		s := &samples[i]
		if s.Err != "" {
			continue
		}
		v, ops := s.Job.Variant, s.Result.Counts.TotalRemote()
		if t, seen := simNs[v]; !seen {
			simNs[v], commOps[v] = s.Result.TimeNs, ops
		} else if t != s.Result.TimeNs || commOps[v] != ops {
			s.Err = fmt.Sprintf("nondeterministic: time_ns %d comm_ops %d, earlier response of %s had %d and %d",
				s.Result.TimeNs, ops, v, t, commOps[v])
		}
	}
	return simNs, commOps
}
