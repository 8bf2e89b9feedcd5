// Package profile defines the execution-profile artifact that closes the
// feedback loop from the EARTH-MANNA simulator back into the communication
// optimizer. The possible-placement analysis (§4.1) weighs tuples with
// static frequency guesses — ×10 out of a loop, ÷2 out of an if, ÷k out of
// a switch. An instrumented simulator run records what actually happened —
// loop trip counts, branch probabilities, switch case distributions, and
// per-site remote-operation counts — and a Data value carries those
// measurements back into placement and selection, replacing the constants
// with measured per-site factors.
//
// Sites are stable string keys derived from the SIMPLE form before any
// transformation: "fn:C3" is the third compound statement of fn in walk
// order (see simple.AssignSites), "fn:S12" is the basic statement with
// label 12 (the paper's S12). Because both the instrumented and the
// optimizing compile lower the same restructured AST, the keys line up
// across the two passes.
//
// The artifact is versioned JSON keyed by a hash of the source text: a
// profile collected from an older revision of the program is detected and
// ignored (the compiler falls back to the static heuristics with a
// warning rather than failing).
package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/contenthash"
)

// Version is the current artifact format version.
const Version = 1

// Loop is the measured behavior of one loop site: Entries counts arrivals
// at the loop statement, Trips counts body executions.
type Loop struct {
	Entries int64 `json:"entries"`
	Trips   int64 `json:"trips"`
}

// Branch is the measured behavior of one if site.
type Branch struct {
	Entries int64 `json:"entries"`
	Then    int64 `json:"then"`
}

// Switch is the measured behavior of one switch site; Cases is keyed by
// case index in declaration order (the default case included).
type Switch struct {
	Entries int64         `json:"entries"`
	Cases   map[int]int64 `json:"cases"`
}

// Access is the measured behavior of one remote-access basic statement:
// Execs counts executions, Remote counts those whose target lived on
// another node.
type Access struct {
	Execs  int64 `json:"execs"`
	Remote int64 `json:"remote"`
}

// Data is one profile: the merged measurements of one or more simulator
// runs of the same source revision.
type Data struct {
	Version    int    `json:"version"`
	SourceHash string `json:"source_hash,omitempty"`
	Runs       int64  `json:"runs"`

	Loops    map[string]*Loop   `json:"loops,omitempty"`
	Branches map[string]*Branch `json:"branches,omitempty"`
	Switches map[string]*Switch `json:"switches,omitempty"`
	Accesses map[string]*Access `json:"accesses,omitempty"`
}

// New returns an empty profile.
func New() *Data {
	return &Data{
		Version:  Version,
		Loops:    make(map[string]*Loop),
		Branches: make(map[string]*Branch),
		Switches: make(map[string]*Switch),
		Accesses: make(map[string]*Access),
	}
}

// HashSource returns the source-revision key a profile is bound to. It is
// the canonical contenthash.Source key, so profile bindings and the compile
// cache's keys agree byte-for-byte.
func HashSource(src string) string {
	return contenthash.Source(src)
}

// ------------------------------------------------------------- recording ---

func (d *Data) loop(site string) *Loop {
	l := d.Loops[site]
	if l == nil {
		l = &Loop{}
		d.Loops[site] = l
	}
	return l
}

func (d *Data) branch(site string) *Branch {
	b := d.Branches[site]
	if b == nil {
		b = &Branch{}
		d.Branches[site] = b
	}
	return b
}

func (d *Data) swtch(site string) *Switch {
	s := d.Switches[site]
	if s == nil {
		s = &Switch{Cases: make(map[int]int64)}
		d.Switches[site] = s
	}
	return s
}

// LoopEnter records an arrival at a loop statement.
func (d *Data) LoopEnter(site string) { d.loop(site).Entries++ }

// LoopTrip records one body execution of a loop.
func (d *Data) LoopTrip(site string) { d.loop(site).Trips++ }

// BranchEnter records an arrival at an if statement.
func (d *Data) BranchEnter(site string) { d.branch(site).Entries++ }

// BranchThen records the then-alternative being taken.
func (d *Data) BranchThen(site string) { d.branch(site).Then++ }

// SwitchEnter records an arrival at a switch statement.
func (d *Data) SwitchEnter(site string) { d.swtch(site).Entries++ }

// SwitchCase records case idx (declaration order) being taken.
func (d *Data) SwitchCase(site string, idx int) { d.swtch(site).Cases[idx]++ }

// RecordAccess records one execution of a remote-access basic statement.
func (d *Data) RecordAccess(site string, remote bool) {
	a := d.Accesses[site]
	if a == nil {
		a = &Access{}
		d.Accesses[site] = a
	}
	a.Execs++
	if remote {
		a.Remote++
	}
}

// ------------------------------------------------------------------ merge ---

// Merge adds another profile's counts into d. The profiles must agree on
// version and (when both are set) source hash: measurements of different
// program revisions must not be mixed.
func (d *Data) Merge(o *Data) error {
	if o.Version != d.Version {
		return fmt.Errorf("profile: cannot merge version %d into version %d", o.Version, d.Version)
	}
	if d.SourceHash != "" && o.SourceHash != "" && d.SourceHash != o.SourceHash {
		return fmt.Errorf("profile: cannot merge profiles of different sources (%s vs %s)",
			o.SourceHash, d.SourceHash)
	}
	if d.SourceHash == "" {
		d.SourceHash = o.SourceHash
	}
	d.Runs += o.Runs
	for site, l := range o.Loops {
		dl := d.loop(site)
		dl.Entries += l.Entries
		dl.Trips += l.Trips
	}
	for site, b := range o.Branches {
		db := d.branch(site)
		db.Entries += b.Entries
		db.Then += b.Then
	}
	for site, s := range o.Switches {
		ds := d.swtch(site)
		ds.Entries += s.Entries
		for idx, n := range s.Cases {
			ds.Cases[idx] += n
		}
	}
	for site, a := range o.Accesses {
		da := d.Accesses[site]
		if da == nil {
			da = &Access{}
			d.Accesses[site] = da
		}
		da.Execs += a.Execs
		da.Remote += a.Remote
	}
	return nil
}

// --------------------------------------------------------------------- io ---

// Write serializes the profile as deterministic, indented JSON (map keys
// are sorted, so identical measurements produce byte-identical artifacts).
func (d *Data) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// Read parses a profile and validates its format version.
func Read(r io.Reader) (*Data, error) {
	d := New()
	if err := json.NewDecoder(r).Decode(d); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	if d.Version != Version {
		return nil, fmt.Errorf("profile: unsupported artifact version %d (want %d)", d.Version, Version)
	}
	if d.Loops == nil {
		d.Loops = make(map[string]*Loop)
	}
	if d.Branches == nil {
		d.Branches = make(map[string]*Branch)
	}
	if d.Switches == nil {
		d.Switches = make(map[string]*Switch)
	}
	if d.Accesses == nil {
		d.Accesses = make(map[string]*Access)
	}
	return d, nil
}

// WriteFile writes the profile to path.
func (d *Data) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile reads a profile from path.
func ReadFile(path string) (*Data, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// ------------------------------------------------------- frequency factors ---

// LoopFactor returns the measured expected iteration count of a loop site
// (the quantity the static LoopFreq = 10 approximates). ok is false when
// the site was never reached during profiling — no data, so the caller
// keeps the static heuristic.
func (d *Data) LoopFactor(site string) (float64, bool) {
	l := d.Loops[site]
	if l == nil || l.Entries == 0 {
		return 0, false
	}
	return float64(l.Trips) / float64(l.Entries), true
}

// BranchFactors returns the measured taken probabilities of an if site
// (the quantities the static ÷2 approximates).
func (d *Data) BranchFactors(site string) (thenF, elseF float64, ok bool) {
	b := d.Branches[site]
	if b == nil || b.Entries == 0 {
		return 0, 0, false
	}
	thenF = float64(b.Then) / float64(b.Entries)
	return thenF, 1 - thenF, true
}

// SwitchFactors returns the measured per-case probabilities of a switch
// site with ncases alternatives (the quantities the static ÷k
// approximates), indexed by case declaration order.
func (d *Data) SwitchFactors(site string, ncases int) ([]float64, bool) {
	s := d.Switches[site]
	if s == nil || s.Entries == 0 {
		return nil, false
	}
	out := make([]float64, ncases)
	for i := range out {
		out[i] = float64(s.Cases[i]) / float64(s.Entries)
	}
	return out, true
}

// AccessCount returns the measured execution and remote counts of a
// remote-access site.
func (d *Data) AccessCount(site string) (execs, remote int64, ok bool) {
	a := d.Accesses[site]
	if a == nil {
		return 0, 0, false
	}
	return a.Execs, a.Remote, true
}
