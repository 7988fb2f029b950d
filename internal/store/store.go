// Package store is the durable, content-addressed scenario-result store
// behind the sweep service — the persistence tier that lets a killed and
// restarted `exadigit serve` re-serve a finished sweep from disk instead
// of recomputing it (ROADMAP item 1's restart-survival requirement).
//
// Each completed scenario result is one NDJSON file keyed by the same
// (spec hash, scenario hash) pair the in-memory result cache uses, laid
// out as dir/<spec-hash>/<scenario-hash>.ndjson:
//
//	{"type":"result","spec_hash":"…","scenario_hash":"…","name":"…","wall_sec":1.2,"report":{…}}
//	{"type":"sample",…}        // one per retained history sample
//	{"type":"meta",…}          // telemetry stream lines (when the result
//	{"type":"series",…}        // carries a Dataset export), in the same
//	{"type":"job",…}           // NDJSON format internal/telemetry streams
//	{"type":"end"}
//
// Entries are written atomically (temp file in the same directory, fsync,
// rename), and the trailing end line makes truncation detectable: Open
// rebuilds the index on startup and quarantines any entry whose trailer
// is missing (renaming it aside as <file>.corrupt), and Get quarantines
// entries that fail to decode at read time. The store never returns a
// partially written result.
package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"exadigit/internal/core"
	"exadigit/internal/raps"
	"exadigit/internal/telemetry"
)

// Sentinel errors.
var (
	// ErrNotFound reports a key with no durable entry.
	ErrNotFound = errors.New("store: entry not found")
	// ErrCorrupt reports an entry that existed but failed integrity
	// checks; the offending file has been quarantined.
	ErrCorrupt = errors.New("store: entry corrupt")
)

// entrySuffix is the durable entry file extension; quarantineSuffix is
// appended (after entrySuffix) when an entry fails integrity checks.
const (
	entrySuffix      = ".ndjson"
	quarantineSuffix = ".corrupt"
)

// endLine is the integrity trailer every complete entry ends with.
var endLine = []byte(`{"type":"end"}`)

// Store is a durable scenario-result store rooted at one directory. All
// methods are safe for concurrent use. The store does not bound its disk
// usage — operators manage the directory like any other data dir (every
// entry is independently deletable; a deleted entry is simply recomputed
// on next demand).
type Store struct {
	dir string

	// leaseMu serializes AcquireLease within this process (lease.go);
	// it is never held together with mu.
	leaseMu sync.Mutex

	mu      sync.Mutex
	index   map[string]int64 // "spec/scen" → entry size in bytes
	bytes   int64
	hits    uint64
	misses  uint64
	puts    uint64
	putErrs uint64
	corrupt uint64 // entries quarantined (startup scan + read-time)

	// Quarantine aging and cross-node lease accounting.
	quarantinePurged uint64 // aged-out *.corrupt files deleted at Open
	leaseAcquired    uint64 // leases successfully claimed (incl. steals)
	leaseWaits       uint64 // acquires refused because a live owner held the key
	leaseSteals      uint64 // expired/unreadable leases taken over

	// Sweep-journal accounting (journal.go).
	journalCreates uint64 // manifests durably written
	journalAppends uint64 // scenario/end records durably appended
	journalErrs    uint64 // journal I/O failures (degraded to in-memory)

	log    *sweepLog // every sweep's journal (journal_log.go)
	logErr error     // what went wrong readying log at Open, if anything
}

// Options configures Open behavior beyond the directory itself.
type Options struct {
	// QuarantineTTL ages out quarantined entries: at Open, *.corrupt
	// files older than this are deleted (they were kept for forensics;
	// past the TTL they are just dead bytes). 0 keeps quarantine files
	// forever — the pre-TTL behavior.
	QuarantineTTL time.Duration
}

// Metrics is the store's observability snapshot. The sweep service
// exposes it on /metrics as the exadigit_store_* families.
type Metrics struct {
	Hits               uint64 `json:"hits"`
	Misses             uint64 `json:"misses"`
	Puts               uint64 `json:"puts"`
	PutErrors          uint64 `json:"put_errors"`
	CorruptQuarantined uint64 `json:"corrupt_quarantined"`
	// QuarantinePurged counts quarantine files aged out by the startup
	// sweep (Options.QuarantineTTL).
	QuarantinePurged uint64 `json:"quarantine_purged"`
	// Lease accounting for the cross-node single-flight protocol.
	LeasesAcquired uint64 `json:"leases_acquired"`
	LeaseWaits     uint64 `json:"lease_waits"`
	LeaseSteals    uint64 `json:"lease_steals"`
	// Sweep-journal accounting: manifests written, records appended,
	// and I/O failures that degraded journaling to in-memory-only.
	JournalCreates uint64 `json:"journal_creates"`
	JournalAppends uint64 `json:"journal_appends"`
	JournalErrors  uint64 `json:"journal_errors"`
	// JournalSyncs counts the sweep log's group commits that were
	// fsynced, each covering every journal line queued while the one
	// before it synced; JournalRewrites counts the log rewritten to its
	// live sweeps.
	JournalSyncs    uint64 `json:"journal_syncs"`
	JournalRewrites uint64 `json:"journal_rewrites"`
	Entries         int    `json:"entries"`
	Bytes           int64  `json:"bytes"`
}

// Open roots a store at dir (created if missing) and rebuilds the index
// by scanning existing entries. Entries without the integrity trailer —
// e.g. a process killed mid-write before the atomic rename, or a file
// truncated by the filesystem — are quarantined, not served. Open also
// readies the sweep log (Store.openLog): a torn last line is cut, and
// per-file journals of an earlier build move into the log. A failure
// there does not fail Open; it degrades journaling (LogOpenErr).
func Open(dir string) (*Store, error) { return OpenOptions(dir, Options{}) }

// OpenOptions is Open with startup-sweep configuration: quarantined
// entries older than Options.QuarantineTTL are deleted, and long-dead
// lease files (expired past any plausible TTL) are collected.
func OpenOptions(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	s := &Store{dir: dir, index: make(map[string]int64), log: newSweepLog(dir)}
	specs, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	// Walk every spec directory first and check the entries' trailers
	// on parallel readers; then act on each file in walk order on this
	// goroutine, so quarantines, sidecar removals and the index come out
	// as a one-by-one walk leaves them.
	type walked struct {
		path, name, key string // key "" for a sidecar
		size            int64
		ok              bool
	}
	var files []walked
	for _, sd := range specs {
		if !sd.IsDir() || !validKey(sd.Name()) {
			continue
		}
		entries, err := os.ReadDir(filepath.Join(dir, sd.Name()))
		if err != nil {
			return nil, fmt.Errorf("store: open: %w", err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() {
				continue
			}
			w := walked{path: filepath.Join(dir, sd.Name(), name), name: name}
			if strings.HasSuffix(name, entrySuffix) {
				scen := strings.TrimSuffix(name, entrySuffix)
				if !validKey(scen) {
					continue
				}
				w.key = sd.Name() + "/" + scen
			}
			files = append(files, w)
		}
	}
	parallelFor(len(files), func(i int) {
		if w := &files[i]; w.key != "" {
			w.size, w.ok = checkTrailer(w.path)
		}
	})
	now := time.Now()
	for _, w := range files {
		switch {
		case w.key == "":
			s.sweepSidecar(w.path, w.name, now, opts)
		case !w.ok:
			s.quarantine(w.path)
			s.corrupt++
		default:
			s.index[w.key] = w.size
			s.bytes += w.size
		}
	}
	if err := s.openLog(); err != nil {
		s.logErr = fmt.Errorf("store: open: journal log: %w", err)
		s.journalErrs++
	}
	return s, nil
}

// parallelFor calls fn(i) once for every i in [0, n) on min(GOMAXPROCS,
// n) goroutines, each taking the next i from a shared counter, and
// returns when every call has. Calls for different i run concurrently,
// so fn may write only state that belongs to its i.
func parallelFor(n int, fn func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// sweepSidecar handles the non-entry files the startup scan walks past:
// quarantined entries past their TTL are deleted (they were kept for
// forensics and nobody came), lease files expired by a generous margin
// are junk from dead processes (live stealers handle freshly expired
// leases themselves — the margin guarantees no live holder or stealer
// is racing this removal), and orphaned lease tombstones from a crash
// mid-steal are collected on the same schedule.
func (s *Store) sweepSidecar(path, name string, now time.Time, opts Options) {
	switch {
	case strings.HasSuffix(name, quarantineSuffix):
		if opts.QuarantineTTL <= 0 {
			return
		}
		if fi, err := os.Stat(path); err == nil && now.Sub(fi.ModTime()) > opts.QuarantineTTL {
			if os.Remove(path) == nil {
				s.quarantinePurged++
			}
		}
	case strings.HasSuffix(name, leaseSuffix):
		if rec, err := readLease(path); err == nil {
			if now.Sub(time.Unix(0, rec.ExpiresUnixNano)) > staleLeaseAge {
				_ = os.Remove(path)
			}
			return
		}
		// Unreadable lease: fall back to file age.
		if fi, err := os.Stat(path); err == nil && now.Sub(fi.ModTime()) > staleLeaseAge {
			_ = os.Remove(path)
		}
	case strings.Contains(name, ".tomb-"):
		if fi, err := os.Stat(path); err == nil && now.Sub(fi.ModTime()) > staleLeaseAge {
			_ = os.Remove(path)
		}
	}
}

// specDirOf returns the per-spec subdirectory for a spec hash.
func specDirOf(dir, specHash string) string { return filepath.Join(dir, specHash) }

// Close waits for a rewrite of the sweep log that runs in the background
// to finish, then closes the log. Calls made after it open the log
// again. A Store abandoned without Close leaves every journal call that
// returned durable, and a rewrite it leaves running finishes, or gives
// way to another Store's, as that Store's would.
func (s *Store) Close() error {
	l := s.log
	l.mu.Lock()
	defer l.mu.Unlock()
	l.idle()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// LogOpenErr returns what went wrong readying the sweep log at Open —
// cutting a torn line, moving per-file journals into it — or nil. Open
// does not fail on it: it is counted in journal_errors, journaling
// degrades as on any failed journal write, and a per-file journal not
// moved stays in place for the next Open to move.
func (s *Store) LogOpenErr() error { return s.logErr }

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Len returns the number of indexed entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Stats returns a point-in-time metrics snapshot.
func (s *Store) Stats() Metrics {
	s.log.mu.Lock()
	syncs, rewrites := s.log.syncs, s.log.rewrites
	s.log.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	return Metrics{
		Hits:               s.hits,
		Misses:             s.misses,
		Puts:               s.puts,
		PutErrors:          s.putErrs,
		CorruptQuarantined: s.corrupt,
		QuarantinePurged:   s.quarantinePurged,
		LeasesAcquired:     s.leaseAcquired,
		LeaseWaits:         s.leaseWaits,
		LeaseSteals:        s.leaseSteals,
		JournalCreates:     s.journalCreates,
		JournalAppends:     s.journalAppends,
		JournalErrors:      s.journalErrs,
		JournalSyncs:       syncs,
		JournalRewrites:    rewrites,
		Entries:            len(s.index),
		Bytes:              s.bytes,
	}
}

// EntryPath returns where the entry for (specHash, scenHash) lives —
// exposed for the fault-injection harness (chaos tests corrupt or
// truncate entries in place) and for operators inspecting the store.
func (s *Store) EntryPath(specHash, scenHash string) string {
	return filepath.Join(s.dir, specHash, scenHash+entrySuffix)
}

// validKey accepts lowercase-hex content hashes only, which both spec
// and scenario hashes are. Anything else (path separators, dotfiles,
// quarantined names) is rejected before touching the filesystem.
func validKey(k string) bool {
	if k == "" {
		return false
	}
	for _, c := range k {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// checkTrailer reports the file's size and whether it ends with the
// integrity trailer — the cheap startup check (a tail read, not a full
// parse) that catches truncation.
func checkTrailer(path string) (int64, bool) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, false
	}
	size := fi.Size()
	n := int64(len(endLine) + 2) // trailer + up to \r\n
	if n > size {
		return size, false
	}
	tail := make([]byte, n)
	if _, err := f.ReadAt(tail, size-n); err != nil {
		return size, false
	}
	return size, bytes.HasSuffix(bytes.TrimRight(tail, "\r\n"), endLine)
}

// quarantine renames a failed entry aside so it is never served again
// but stays on disk for forensics. Rename failures fall back to removal.
func (s *Store) quarantine(path string) {
	if err := os.Rename(path, path+quarantineSuffix); err != nil {
		_ = os.Remove(path)
	}
}

// resultLine is the entry header: identity, the end-of-run report, and
// the scalar result fields. History samples and the telemetry dataset
// follow as their own lines so multi-megabyte exports stream instead of
// materializing one giant JSON value.
type resultLine struct {
	Type         string       `json:"type"`
	SpecHash     string       `json:"spec_hash"`
	ScenarioHash string       `json:"scenario_hash"`
	Name         string       `json:"name,omitempty"`
	WallSec      float64      `json:"wall_sec"`
	Report       *raps.Report `json:"report,omitempty"`
}

// sampleLine is one retained history sample.
type sampleLine struct {
	Type string `json:"type"`
	raps.Sample
}

// Put durably persists a completed result under (specHash, scenHash),
// atomically: the entry is visible in full or not at all. The persisted
// form carries the report, history, wall time, and telemetry export;
// the originating Scenario struct is not persisted (the content hash is
// the scenario's durable identity), so results served from disk carry
// only the scenario name.
func (s *Store) Put(specHash, scenHash string, res *core.Result) error {
	err := s.put(specHash, scenHash, res)
	s.mu.Lock()
	if err != nil {
		s.putErrs++
	} else {
		s.puts++
	}
	s.mu.Unlock()
	return err
}

func (s *Store) put(specHash, scenHash string, res *core.Result) error {
	if !validKey(specHash) || !validKey(scenHash) {
		return fmt.Errorf("store: put: invalid key %q/%q", specHash, scenHash)
	}
	if res == nil {
		return fmt.Errorf("store: put: nil result")
	}
	var size int64
	err := writeAtomic(s.EntryPath(specHash, scenHash), func(f *os.File) error {
		bw := bufio.NewWriter(f)
		if err := writeEntry(bw, specHash, scenHash, res); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		fi, err := f.Stat()
		if err != nil {
			return err
		}
		size = fi.Size()
		return nil
	})
	if err != nil {
		return fmt.Errorf("store: put %s/%s: %w", specHash, scenHash, err)
	}

	key := specHash + "/" + scenHash
	s.mu.Lock()
	if old, ok := s.index[key]; ok {
		s.bytes -= old
	}
	s.index[key] = size
	s.bytes += size
	s.mu.Unlock()
	return nil
}

// writeAtomic replaces path's content with what write puts in the file
// it is handed, in full or not at all: a temp file in path's directory
// (created if missing) is written, fsynced, closed and renamed over
// path, and removed on any failure.
func writeAtomic(path string, write func(f *os.File) error) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	err = write(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		_ = os.Remove(tmp.Name())
	}
	return err
}

func writeEntry(w io.Writer, specHash, scenHash string, res *core.Result) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(resultLine{
		Type:         "result",
		SpecHash:     specHash,
		ScenarioHash: scenHash,
		Name:         res.Scenario.Name,
		WallSec:      res.WallSec,
		Report:       res.Report,
	}); err != nil {
		return err
	}
	for i := range res.History {
		if err := enc.Encode(sampleLine{Type: "sample", Sample: res.History[i]}); err != nil {
			return err
		}
	}
	if res.Dataset != nil {
		if err := telemetry.WriteStream(w, res.Dataset); err != nil {
			return err
		}
	}
	if _, err := w.Write(append(endLine, '\n')); err != nil {
		return err
	}
	return nil
}

// Get loads the durable result for (specHash, scenHash). A missing entry
// returns ErrNotFound; an entry that fails to decode — truncated past
// the startup check, bit-rotted, or hand-edited — is quarantined and
// returns ErrCorrupt. Both are misses to the caller: the scenario is
// simply recomputed (and re-persisted) by the sweep worker.
func (s *Store) Get(specHash, scenHash string) (*core.Result, error) {
	key := specHash + "/" + scenHash
	s.mu.Lock()
	size, ok := s.index[key]
	s.mu.Unlock()
	if !ok {
		// The index is a startup scan plus our own Puts — but when
		// several nodes share this directory (the distributed-sweep
		// deployment), a sibling may have persisted the key since. Probe
		// the disk before declaring a miss: Put renames are atomic, so a
		// visible file is a complete entry. One Stat per cold miss is
		// noise next to the recompute a false miss would cause — and the
		// cross-node lease protocol depends on waiters seeing the
		// holder's Put through exactly this path.
		var fi os.FileInfo
		var statErr error
		if validKey(specHash) && validKey(scenHash) {
			fi, statErr = os.Stat(s.EntryPath(specHash, scenHash))
		} else {
			statErr = ErrNotFound
		}
		if statErr != nil {
			s.mu.Lock()
			s.misses++
			s.mu.Unlock()
			return nil, ErrNotFound
		}
		size = fi.Size()
		s.mu.Lock()
		if _, dup := s.index[key]; !dup {
			s.index[key] = size
			s.bytes += size
		}
		s.mu.Unlock()
	}

	res, err := readEntry(s.EntryPath(specHash, scenHash), specHash, scenHash)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.quarantine(s.EntryPath(specHash, scenHash))
		s.corrupt++
		s.misses++
		if _, ok := s.index[key]; ok {
			delete(s.index, key)
			s.bytes -= size
		}
		return nil, fmt.Errorf("%w: %s/%s: %v", ErrCorrupt, specHash, scenHash, err)
	}
	s.hits++
	return res, nil
}

// readEntry decodes one entry file back into a Result.
func readEntry(path, specHash, scenHash string) (*core.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return decodeEntry(f, specHash, scenHash)
}

// decodeEntry decodes an entry's NDJSON lines. They are free of ordering
// assumptions except that the result header, keyed (specHash, scenHash),
// must come first and the end trailer must come last (its absence is how
// truncation past the last complete line is caught).
func decodeEntry(r io.Reader, specHash, scenHash string) (*core.Result, error) {
	dec := json.NewDecoder(r)
	var res *core.Result
	var ds *telemetry.Dataset
	ended := false
	for line := 0; ; line++ {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		if ended {
			return nil, fmt.Errorf("line %d: content after end trailer", line)
		}
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		switch probe.Type {
		case "result":
			var rl resultLine
			if err := json.Unmarshal(raw, &rl); err != nil {
				return nil, fmt.Errorf("line %d: %w", line, err)
			}
			if line != 0 {
				return nil, fmt.Errorf("line %d: result header not first", line)
			}
			if rl.SpecHash != specHash || rl.ScenarioHash != scenHash {
				return nil, fmt.Errorf("line %d: entry is keyed %s/%s", line, rl.SpecHash, rl.ScenarioHash)
			}
			res = &core.Result{
				Scenario: core.Scenario{Name: rl.Name},
				Report:   rl.Report,
				WallSec:  rl.WallSec,
			}
		case "sample":
			if res == nil {
				return nil, fmt.Errorf("line %d: sample before result header", line)
			}
			var sl sampleLine
			if err := json.Unmarshal(raw, &sl); err != nil {
				return nil, fmt.Errorf("line %d: %w", line, err)
			}
			res.History = append(res.History, sl.Sample)
		case "end":
			ended = true
		default:
			// meta, series and job lines are the telemetry stream's.
			if ds == nil {
				ds = &telemetry.Dataset{}
			}
			if err := ds.DecodeStreamLine(probe.Type, raw); err != nil {
				return nil, fmt.Errorf("line %d: %w", line, err)
			}
		}
	}
	if !ended {
		return nil, errors.New("missing end trailer (truncated entry)")
	}
	if res == nil {
		return nil, errors.New("missing result header")
	}
	res.Dataset = ds
	return res, nil
}
