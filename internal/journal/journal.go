// Package journal is earthd's durability layer: an append-only,
// segment-rotated write-ahead log of accepted jobs and their outcomes.
// The service appends an accepted record — and syncs it — before it
// acknowledges a job, so a SIGKILL, OOM, or node crash can lose only work
// the client was never promised. On restart, Open replays the log into a
// Recovery: jobs with no outcome re-enter the queue, and completed jobs
// answer re-submissions from their journaled payload without re-running.
//
// The format borrows the repo's self-validation idiom (the PR 7 artifact
// store): one JSON record per line, each carrying a contenthash checksum
// over its own fields. A record that does not validate — truncated by a
// crash mid-append, bit-flipped on disk, half of a torn write — is treated
// as the end of that segment: the tail is truncated on open and scanning
// continues with the next segment. Recovery therefore degrades in exactly
// one direction: a lost *outcome* record re-runs its job (deterministic
// replay makes the payload byte-identical), and a lost *accepted* record
// can only drop a job the service never acknowledged durably.
//
// Segments rotate by size, and every rotation doubles as a compaction:
// the live state (pending accepted records plus a bounded window of recent
// outcomes) is snapshotted into the fresh segment and the fully-absorbed
// old segments are deleted, so disk usage is bounded by the segment size
// plus the retention window rather than by service lifetime.
package journal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"repro/internal/contenthash"
)

// Record kinds. Accepted opens a job; exactly one of Completed/Cancelled
// closes it. Duplicate closes are legal (crash-replay can complete a job
// whose earlier completion record was lost in the same crash that forced
// the replay) and collapse deterministically: the first valid close wins.
const (
	KindAccepted  = "accepted"
	KindCompleted = "completed"
	KindCancelled = "cancelled"
)

// Record is one journal entry. Req carries the accepted job's canonical
// request JSON; Status/Result/Error carry a completion (Result for
// successes, Error + the mapped HTTP status for deterministic failures);
// Reason annotates a cancellation.
type Record struct {
	Seq    uint64          `json:"seq"`
	Kind   string          `json:"kind"`
	ID     string          `json:"id"`
	Req    json.RawMessage `json:"req,omitempty"`
	Status int             `json:"status,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
	Reason string          `json:"reason,omitempty"`
	// Sum is the contenthash over every field above; a record that fails
	// to re-derive it is corrupt and terminates its segment's scan.
	Sum string `json:"sum"`
}

func (r *Record) checksum() string {
	return contenthash.Parts(
		strconv.FormatUint(r.Seq, 10), r.Kind, r.ID,
		strconv.Itoa(r.Status), string(r.Req), string(r.Result),
		r.Error, r.Reason)
}

// Options tune the journal. The zero value is production-ready.
type Options struct {
	// SegmentBytes is the rotation threshold (default 1 MiB): how much may
	// be appended behind a snapshot before the next one. Rotation compacts:
	// live state moves to the new segment, old segments are deleted.
	SegmentBytes int64
	// SyncEvery bounds how many outcome records may sit unsynced before a
	// write forces fsync (default 16). Accepted records always sync before
	// Accepted returns — that is the durability point the 202 stands on.
	SyncEvery int
	// Retain bounds how many closed-job records survive a compaction
	// (default 4096, newest first). A re-submission older than the window
	// re-runs instead of replaying — correct, just not free.
	Retain int
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 16
	}
	if o.Retain <= 0 {
		o.Retain = 4096
	}
	return o
}

// Stats counts journal activity since Open.
type Stats struct {
	Appended       int64 // records appended this process
	Syncs          int64 // fsyncs issued
	Lag            int   // records appended but not yet synced
	Segments       int   // live segment files
	CorruptRecords int64 // records dropped by validation on open
	TruncatedTails int64 // segments whose tail was cut on open
	DupCloses      int64 // duplicate completion/cancellation records collapsed
	Compactions    int64 // snapshot compactions performed
	PendingJobs    int   // accepted jobs with no outcome yet
}

// Recovery is the state rebuilt by Open: what must re-run and what can be
// answered without running.
type Recovery struct {
	// Pending holds accepted records with no outcome, in journal order —
	// the jobs the service must replay through its queue.
	Pending []Record
	// Completed maps job id to its first valid completion record.
	Completed map[string]Record
	// Cancelled maps job id to its first valid cancellation record (only
	// ids with no completion; a completed job's late cancel is ignored).
	Cancelled map[string]Record
}

// Journal is an open write-ahead log. Safe for concurrent use.
type Journal struct {
	mu  sync.Mutex
	dir string
	opt Options

	f        *os.File
	segIndex uint64 // index of the open segment
	segs     []string
	written  int64 // bytes appended to the open segment since its snapshot
	nextSeq  uint64
	lag      int

	// Live state, maintained across appends so every rotation can compact.
	pending   map[string]Record // accepted, no outcome
	pendOrder []string
	closed    map[string]Record // first completion/cancellation per id
	closOrder []string

	stats Stats
}

func segName(i uint64) string { return fmt.Sprintf("seg-%010d.wal", i) }

// Open loads (creating if needed) the journal in dir, validates and
// repairs it, compacts multi-segment or damaged logs into one snapshot
// segment, and returns the recovered state.
func Open(dir string, opt Options) (*Journal, *Recovery, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	j := &Journal{
		dir: dir, opt: opt,
		pending: make(map[string]Record),
		closed:  make(map[string]Record),
	}
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(names)
	damaged := false
	for _, name := range names {
		d, err := j.scanSegment(name)
		if err != nil {
			return nil, nil, err
		}
		damaged = damaged || d
	}
	j.trimClosedLocked()
	for _, name := range names {
		var idx uint64
		fmt.Sscanf(filepath.Base(name), "seg-%d.wal", &idx)
		if idx >= j.segIndex {
			j.segIndex = idx + 1
		}
	}
	rec := &Recovery{
		Completed: make(map[string]Record),
		Cancelled: make(map[string]Record),
	}
	for _, id := range j.pendOrder {
		if r, ok := j.pending[id]; ok {
			rec.Pending = append(rec.Pending, r)
		}
	}
	for id, r := range j.closed {
		switch r.Kind {
		case KindCompleted:
			rec.Completed[id] = r
		case KindCancelled:
			rec.Cancelled[id] = r
		}
	}
	// Compact damaged or multi-segment logs into one fresh snapshot; a
	// single clean segment reopens for append as-is.
	if damaged || len(names) != 1 {
		if err := j.compactLocked(names); err != nil {
			return nil, nil, err
		}
	} else {
		f, err := os.OpenFile(names[0], os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, err
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		j.f, j.segs, j.written = f, []string{names[0]}, st.Size()
	}
	j.stats.Segments = len(j.segs)
	j.stats.PendingJobs = len(j.pending)
	return j, rec, nil
}

// scanSegment replays one segment file into the live state. A record that
// fails to parse or validate ends the segment: the remainder is dropped,
// and the file is truncated at the bad offset so the damage never has to
// be re-diagnosed. Returns whether the segment was damaged.
func (j *Journal) scanSegment(name string) (bool, error) {
	f, err := os.Open(name)
	if err != nil {
		return false, err
	}
	defer f.Close()
	var off int64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	damaged := false
	for sc.Scan() {
		line := sc.Bytes()
		var r Record
		if err := json.Unmarshal(line, &r); err != nil || r.Sum != r.checksum() {
			damaged = true
			break
		}
		off += int64(len(line)) + 1
		j.applyLocked(r)
		if r.Seq >= j.nextSeq {
			j.nextSeq = r.Seq + 1
		}
	}
	if err := sc.Err(); err != nil && err != bufio.ErrTooLong {
		return false, err
	}
	st, err := f.Stat()
	if err != nil {
		return false, err
	}
	if damaged || off < st.Size() {
		// Either an invalid record or trailing garbage the scanner could
		// not frame: cut the tail so the next open starts clean. (A clean
		// final line with no trailing newline also lands here; rewriting
		// it off is harmless because compaction rewrites the log anyway.)
		j.stats.CorruptRecords++
		j.stats.TruncatedTails++
		if err := os.Truncate(name, off); err != nil {
			return false, err
		}
		return true, nil
	}
	return false, nil
}

// applyLocked folds one valid record into the live state. First close per
// id wins; an accepted record for an already-closed id (possible after a
// compaction raced a crash) stays closed.
func (j *Journal) applyLocked(r Record) {
	switch r.Kind {
	case KindAccepted:
		if _, done := j.closed[r.ID]; done {
			return
		}
		if _, ok := j.pending[r.ID]; !ok {
			j.pendOrder = append(j.pendOrder, r.ID)
		}
		j.pending[r.ID] = r
	case KindCompleted, KindCancelled:
		if _, done := j.closed[r.ID]; done {
			j.stats.DupCloses++
			return
		}
		j.closed[r.ID] = r
		j.closOrder = append(j.closOrder, r.ID)
		delete(j.pending, r.ID)
	}
}

// Accepted journals a job acceptance and syncs before returning: once this
// returns nil the job survives any crash. req should be the canonical
// request encoding the service would need to re-run the job.
func (j *Journal) Accepted(id string, req []byte) error {
	return j.append(Record{Kind: KindAccepted, ID: id, Req: req}, true)
}

// Completed journals a job outcome: result JSON for successes, the mapped
// HTTP status plus error text for deterministic failures. Outcome records
// sync lazily (see Options.SyncEvery); a lost one costs a deterministic
// re-run, never a wrong answer.
func (j *Journal) Completed(id string, status int, result []byte, errMsg string) error {
	return j.append(Record{Kind: KindCompleted, ID: id, Status: status, Result: result, Error: errMsg}, false)
}

// Cancelled journals an abort (client request, disconnect, wall deadline).
func (j *Journal) Cancelled(id, reason string) error {
	return j.append(Record{Kind: KindCancelled, ID: id, Reason: reason}, false)
}

func (j *Journal) append(r Record, syncNow bool) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("journal: closed")
	}
	r.Seq = j.nextSeq
	j.nextSeq++
	r.Sum = r.checksum()
	line, err := json.Marshal(&r)
	if err != nil {
		return err
	}
	if j.written > j.opt.SegmentBytes {
		if err := j.rotateLocked(); err != nil {
			return err
		}
	}
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		return err
	}
	j.written += int64(len(line)) + 1
	j.applyLocked(r)
	j.trimClosedLocked()
	j.stats.Appended++
	j.lag++
	if syncNow || j.lag >= j.opt.SyncEvery {
		return j.syncLocked()
	}
	return nil
}

// trimClosedLocked enforces the retention window on closed-job records in
// memory; disk catches up at the next compaction.
func (j *Journal) trimClosedLocked() {
	for len(j.closOrder) > j.opt.Retain {
		delete(j.closed, j.closOrder[0])
		j.closOrder = j.closOrder[1:]
	}
}

// rotateLocked is rotation-as-compaction: snapshot the live state into a
// fresh segment, then delete every older segment (their live records are
// all in the snapshot; their dead ones are the point of compacting).
func (j *Journal) rotateLocked() error {
	old := j.segs
	if j.f != nil {
		j.f.Sync()
		j.f.Close()
		j.f = nil
	}
	return j.writeSnapshotLocked(old)
}

// compactLocked is the open-time variant of rotation: the segment list
// comes from the directory scan and no file is currently open.
func (j *Journal) compactLocked(old []string) error {
	return j.writeSnapshotLocked(old)
}

// writeSnapshotLocked writes pending + retained closed records into a new
// segment, fsyncs it (and the directory), points the journal at it, and
// removes the old segments.
func (j *Journal) writeSnapshotLocked(old []string) error {
	name := filepath.Join(j.dir, segName(j.segIndex))
	j.segIndex++
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	emit := func(r Record) error {
		r.Seq = j.nextSeq
		j.nextSeq++
		r.Sum = r.checksum()
		line, err := json.Marshal(&r)
		if err != nil {
			return err
		}
		_, err = w.Write(append(line, '\n'))
		return err
	}
	for _, id := range j.closOrder {
		if r, ok := j.closed[id]; ok {
			if err := emit(r); err != nil {
				f.Close()
				return err
			}
		}
	}
	for _, id := range j.pendOrder {
		if r, ok := j.pending[id]; ok {
			if err := emit(r); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	// Rebuild pendOrder without tombstones of long-closed ids.
	live := j.pendOrder[:0]
	for _, id := range j.pendOrder {
		if _, ok := j.pending[id]; ok {
			live = append(live, id)
		}
	}
	j.pendOrder = live
	for _, o := range old {
		if o != name {
			os.Remove(o)
		}
	}
	if d, err := os.Open(j.dir); err == nil {
		d.Sync()
		d.Close()
	}
	// The snapshot's own size does not count toward the next rotation: a
	// retained set larger than SegmentBytes would otherwise compact again on
	// every append.
	j.f, j.segs, j.written, j.lag = f, []string{name}, 0, 0
	j.stats.Compactions++
	j.stats.Syncs++
	return nil
}

func (j *Journal) syncLocked() error {
	if j.lag == 0 || j.f == nil {
		return nil
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.stats.Syncs++
	j.lag = 0
	return nil
}

// Sync forces any lazily-appended outcome records to disk.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.syncLocked()
}

// Lag reports how many appended records are not yet known synced — the
// /healthz "journal lag" figure.
func (j *Journal) Lag() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lag
}

// Stats snapshots journal activity.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.stats
	st.Lag = j.lag
	st.Segments = len(j.segs)
	st.PendingJobs = len(j.pending)
	return st
}

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.dir }

// Close syncs and releases the log. Further appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.syncLocked()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}
