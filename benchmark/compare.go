package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
)

// resultFile is what -out writes: one run per workload.
type resultFile struct {
	Results []*runResult `json:"results"`
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func (f *resultFile) byWorkload(name string) *runResult {
	for _, r := range f.Results {
		if r.Workload == name {
			return r
		}
	}
	return nil
}

// sameConditions says why two runs of one workload may not be compared, or
// "" when they may. The seed is meant to differ, and so may the revision:
// comparing two commits is what the tool is for.
func sameConditions(a, b *runResult) string {
	ea, eb := a.Env, b.Env
	ea.Revision, eb.Revision = "", ""
	switch {
	case ea != eb:
		return fmt.Sprintf("environment %+v vs %+v", ea, eb)
	case a.Seconds != b.Seconds:
		return fmt.Sprintf("window %ds vs %ds", a.Seconds, b.Seconds)
	case a.Clients != b.Clients:
		return fmt.Sprintf("clients %d vs %d", a.Clients, b.Clients)
	case !reflect.DeepEqual(a.Flags, b.Flags):
		return fmt.Sprintf("earthd flags %v vs %v", a.Flags, b.Flags)
	case a.Warmup != b.Warmup:
		return fmt.Sprintf("warm-up %d vs %d jobs", a.Warmup, b.Warmup)
	case a.JournalFS != b.JournalFS:
		return fmt.Sprintf("journal filesystem %s vs %s", a.JournalFS, b.JournalFS)
	}
	return ""
}

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction; negative means b is better.
func worsening(d metricDef, a, b float64) float64 {
	if d.Better == "higher" {
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}

// Exit statuses of -compare.
const (
	compareOK       = 0
	compareBreach   = 1
	compareRefused  = 2
	verdictOK       = "ok"
	verdictBreach   = "BREACH"
	verdictNotEqual = "NOT EQUAL"
)

func verdict(d metricDef, a, b float64) string {
	switch {
	case d.Exact && a != b:
		return verdictNotEqual
	case !d.Exact && worsening(d, a, b) > d.Bound:
		return verdictBreach
	}
	return verdictOK
}

// compareFiles is compare on two -out files; an unreadable file is a
// refusal.
func compareFiles(w io.Writer, basePath, candPath string) int {
	base, err := readResultFile(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return compareRefused
	}
	cand, err := readResultFile(candPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return compareRefused
	}
	return compare(w, base, cand)
}

// compare prints, for every workload of base and every end-to-end metric,
// both values, how much worse cand is, the bound and the verdict. It
// refuses when the two were not measured under the same conditions.
func compare(w io.Writer, base, cand *resultFile) int {
	for _, a := range base.Results {
		b := cand.byWorkload(a.Workload)
		if b == nil {
			fmt.Fprintf(w, "refused: %s is in the first file only\n", a.Workload)
			return compareRefused
		}
		if why := sameConditions(a, b); why != "" {
			fmt.Fprintf(w, "refused: %s was measured under different conditions: %s\n", a.Workload, why)
			return compareRefused
		}
	}
	status := compareOK
	fmt.Fprintf(w, "%-18s %-14s %14s %14s %9s %7s  %s\n", "workload", "metric", "base", "candidate", "worse by", "bound", "verdict")
	for _, a := range base.Results {
		b := cand.byWorkload(a.Workload)
		for _, d := range endToEnd {
			va, vb := a.EndToEnd[d.Name].Value, b.EndToEnd[d.Name].Value
			v := verdict(d, va, vb)
			if v != verdictOK {
				status = compareBreach
			}
			bound := fmt.Sprintf("%.0f%%", 100*d.Bound)
			if d.Exact {
				bound = "exact"
			}
			fmt.Fprintf(w, "%-18s %-14s %14.4f %14.4f %+8.1f%% %7s  %s\n",
				a.Workload, d.Name, va, vb, 100*worsening(d, va, vb), bound, v)
		}
	}
	return status
}
