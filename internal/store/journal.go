package store

// The durable sweep journal. The result store persists *what* a
// scenario computed; the journal persists *that a sweep asked for it* —
// the sweep's identity, scenario list, options, and per-scenario
// terminal outcomes (including failures, which have no result-store
// entry at all). Together the two let a killed coordinator or serve
// process re-adopt its in-flight sweeps on restart instead of losing
// them: the manifest rebuilds the sweep, the records plus the result
// store mark what is already terminal, and only the remainder is
// recomputed.
//
// Journals live under dir/sweeps/<sweep-id>.journal — the "sweeps"
// directory name is not a hex hash, so the result-entry startup scan
// never confuses it for a spec directory. Each journal is NDJSON:
//
//	{"type":"sweep","sweep":{…header…}}                            // id, key, hashes, names, options
//	{"type":"payload","payload":{"spec":{…},"scenarios":[…]}}      // what a resume needs to recompute
//	{"type":"scenario","scenario":{"index":3,"state":"done",…}}   // 0+ lines, in the create or appended as scenarios land
//	{"type":"end","disposition":"complete"}                        // only once every scenario is terminal
//
// The header and payload lines are written together with the store's
// temp-file + fsync + atomic-rename discipline, so a journal is visible
// with both complete or not at all. Records of scenarios already final
// at submission (memory-cache hits) may come in that same create, and
// when they cover every scenario so does the end line: such a journal
// is sealed at create and takes no appends. Later records are appended
// with per-line fsync; a crash can therefore leave at most one torn
// trailing line, which the scan tolerates (everything before it is
// kept). A journal without the end line is an incomplete sweep —
// exactly the crash evidence recovery looks for.
//
// The payload — the spec and the scenario list, most of a journal's
// bytes — sits on a line of its own so the scan can keep it as raw
// bytes: a finished sweep is served from the header and records alone,
// and only resuming an incomplete sweep decodes the payload
// (JournalEntry.Payload). Journals written before the split carry spec
// and scenarios inline in the header and no names; they still read, the
// inline fields serving as the payload.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

const (
	journalDirName = "sweeps"
	journalSuffix  = ".journal"
)

// SweepManifest is a sweep's durable identity, written once at
// submission. Spec and scenarios are carried as raw JSON: the store
// does not depend on the service's wire types — the service encodes at
// submit and decodes at recovery, and the store just keeps the bytes.
type SweepManifest struct {
	ID   string `json:"id"`
	Key  string `json:"key,omitempty"` // client idempotency key
	Name string `json:"name,omitempty"`
	// SpecHash and ScenarioHashes are the content-addressed result-store
	// keys; recovery verifies recomputed hashes against them before
	// trusting any journal record.
	SpecHash       string   `json:"spec_hash"`
	ScenarioHashes []string `json:"scenario_hashes"`
	// Names are the scenarios' display names, one per hash: all a
	// finished sweep's status needs of its scenarios.
	Names []string `json:"names,omitempty"`
	// SpecJSON and ScenariosJSON are the payload. CreateJournal writes
	// them on the payload line, not in the header, so a scanned manifest
	// carries them only from a journal written before the split; read
	// them through JournalEntry.Payload.
	SpecJSON      json.RawMessage `json:"spec,omitempty"`
	ScenariosJSON json.RawMessage `json:"scenarios,omitempty"`
	// Sweep options needed to resume with the same behavior.
	MaxConcurrent   int     `json:"max_concurrent,omitempty"`
	TimeoutSec      float64 `json:"timeout_sec,omitempty"`
	MaxAttempts     int     `json:"max_attempts,omitempty"`
	CreatedUnixNano int64   `json:"created_unix_nano"`
}

// sweepPayload is the payload line's body.
type sweepPayload struct {
	Spec      json.RawMessage `json:"spec"`
	Scenarios json.RawMessage `json:"scenarios"`
}

// ScenarioRecord is one scenario's terminal outcome. Failures are
// recorded with their error text and attempt count so a recovered
// sweep's status is reconstructible without recompute; cancellations
// are never recorded (a cancelled scenario is work the sweep still
// owes, which is the point of re-adoption).
type ScenarioRecord struct {
	Index    int     `json:"index"`
	Hash     string  `json:"hash"`
	State    string  `json:"state"` // done | cached | failed
	Error    string  `json:"error,omitempty"`
	Attempts int     `json:"attempts,omitempty"`
	WallSec  float64 `json:"wall_sec,omitempty"`
	CacheHit bool    `json:"cache_hit,omitempty"`
}

// journalLine is the NDJSON envelope of every journal line.
type journalLine struct {
	Type        string          `json:"type"` // sweep | payload | scenario | end
	Sweep       *SweepManifest  `json:"sweep,omitempty"`
	Payload     *sweepPayload   `json:"payload,omitempty"`
	Scenario    *ScenarioRecord `json:"scenario,omitempty"`
	Disposition string          `json:"disposition,omitempty"` // end: complete | cancelled
}

// SweepJournal is an open, appendable journal for one live sweep. All
// methods are safe for concurrent use. I/O errors are sticky: after the
// first failed append the journal closes itself and every later call
// degrades to a counted no-op — journaling must never fail a sweep that
// would have succeeded in memory.
type SweepJournal struct {
	s      *Store
	path   string
	sealed bool // the end line came in the create: no file is held open

	mu       sync.Mutex
	f        *os.File
	err      error
	detached bool
}

// ErrJournalSealed is returned by Append on a journal sealed at create.
var ErrJournalSealed = errors.New("store: journal sealed at create")

// ValidSweepID accepts the journal's id alphabet: the "sw-" prefix
// followed by lowercase hex and dashes. Everything else (path
// separators, dots, uppercase) is rejected before touching the
// filesystem.
func ValidSweepID(id string) bool {
	rest, ok := strings.CutPrefix(id, "sw-")
	if !ok || rest == "" || len(id) > 80 {
		return false
	}
	for _, c := range rest {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') && c != '-' {
			return false
		}
	}
	return true
}

func (s *Store) journalPath(id string) string {
	return filepath.Join(s.dir, journalDirName, id+journalSuffix)
}

// CreateJournal durably writes the sweep's header and payload lines,
// then recs — outcomes already final at submission — and returns the
// open journal for later record appends. Everything is written to a
// temp file, fsynced, and renamed into place — a journal is never
// visible half-written — and only then reopened for appending. When recs
// cover every scenario the create also writes the "complete" end line:
// the journal is sealed, nothing is reopened, Append refuses and End is
// a no-op.
func (s *Store) CreateJournal(m *SweepManifest, recs ...ScenarioRecord) (*SweepJournal, error) {
	j, err := s.createJournal(m, recs)
	s.mu.Lock()
	if err != nil {
		s.journalErrs++
	} else {
		s.journalCreates++
	}
	s.mu.Unlock()
	return j, err
}

func (s *Store) createJournal(m *SweepManifest, recs []ScenarioRecord) (*SweepJournal, error) {
	if m == nil || !ValidSweepID(m.ID) {
		return nil, fmt.Errorf("store: journal: invalid sweep id %q", idOf(m))
	}
	path := s.journalPath(m.ID)
	sealed := coversAll(m.ScenarioHashes, recs)
	err := writeAtomic(path, func(f *os.File) error {
		hdr := *m
		hdr.SpecJSON, hdr.ScenariosJSON = nil, nil
		enc := json.NewEncoder(f)
		err := enc.Encode(journalLine{Type: "sweep", Sweep: &hdr})
		if err == nil {
			err = enc.Encode(journalLine{Type: "payload", Payload: &sweepPayload{Spec: m.SpecJSON, Scenarios: m.ScenariosJSON}})
		}
		for i := 0; i < len(recs) && err == nil; i++ {
			err = enc.Encode(journalLine{Type: "scenario", Scenario: &recs[i]})
		}
		if sealed && err == nil {
			err = enc.Encode(journalLine{Type: "end", Disposition: "complete"})
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("store: journal %s: %w", m.ID, err)
	}
	if sealed {
		return &SweepJournal{s: s, path: path, sealed: true}, nil
	}
	return s.openJournalAppend(path)
}

// coversAll reports whether recs hold, for every scenario hash, a
// record the scan would keep: its index and that index's hash.
func coversAll(hashes []string, recs []ScenarioRecord) bool {
	if len(hashes) == 0 || len(recs) < len(hashes) {
		return false
	}
	seen := make([]bool, len(hashes))
	left := len(hashes)
	for _, r := range recs {
		if r.Index >= 0 && r.Index < len(hashes) && r.Hash == hashes[r.Index] && !seen[r.Index] {
			seen[r.Index] = true
			left--
		}
	}
	return left == 0
}

func idOf(m *SweepManifest) string {
	if m == nil {
		return "<nil>"
	}
	return m.ID
}

// OpenJournal reopens an existing journal for appending — how a
// recovered sweep resumes recording terminal scenarios into the same
// file. Duplicate records for an index are fine: the scan keeps the
// last one.
func (s *Store) OpenJournal(id string) (*SweepJournal, error) {
	if !ValidSweepID(id) {
		return nil, fmt.Errorf("store: journal: invalid sweep id %q", id)
	}
	path := s.journalPath(id)
	if _, err := os.Stat(path); err != nil {
		return nil, fmt.Errorf("store: journal %s: %w", id, err)
	}
	return s.openJournalAppend(path)
}

func (s *Store) openJournalAppend(path string) (*SweepJournal, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: journal: %w", err)
	}
	return &SweepJournal{s: s, path: path, f: f}, nil
}

// Append durably records one scenario's terminal outcome. Errors are
// sticky and degrade the journal to a no-op (see SweepJournal); the
// returned error is for logging only — the sweep proceeds regardless.
// A journal sealed at create already holds every outcome and refuses
// with ErrJournalSealed.
func (j *SweepJournal) Append(rec ScenarioRecord) error {
	if j.sealed {
		return ErrJournalSealed
	}
	return j.append(journalLine{Type: "scenario", Scenario: &rec})
}

// End records the sweep's disposition ("complete" or "cancelled") and
// closes the journal. A journal without an end line is what recovery
// re-adopts, so End must only be called once every scenario is
// terminal. On a journal sealed at create End is a silent no-op.
func (j *SweepJournal) End(disposition string) error {
	if j.sealed {
		return nil
	}
	err := j.append(journalLine{Type: "end", Disposition: disposition})
	j.mu.Lock()
	if j.f != nil {
		_ = j.f.Close()
		j.f = nil
	}
	j.mu.Unlock()
	return err
}

func (j *SweepJournal) append(line journalLine) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.detached || j.err != nil || j.f == nil {
		return j.err
	}
	b, err := json.Marshal(line)
	if err == nil {
		_, err = j.f.Write(append(b, '\n'))
		if err == nil {
			err = j.f.Sync()
		}
	}
	if err != nil {
		// Sticky degradation: close, remember the error, count it. The
		// on-disk journal keeps everything up to the last good line —
		// recovery tolerates the torn tail this may leave.
		j.err = err
		_ = j.f.Close()
		j.f = nil
		j.s.mu.Lock()
		j.s.journalErrs++
		j.s.mu.Unlock()
		return err
	}
	j.s.mu.Lock()
	j.s.journalAppends++
	j.s.mu.Unlock()
	return nil
}

// Detach severs the journal from the process without writing an end
// line: the file on disk stays exactly as a kill -9 at this instant
// would have left it, and every later Append/End is a silent no-op.
// Crash-recovery tests use this to fabricate a mid-sweep kill inside
// one process.
func (j *SweepJournal) Detach() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.detached = true
	if j.f != nil {
		_ = j.f.Close()
		j.f = nil
	}
}

// Err returns the sticky I/O error, if any.
func (j *SweepJournal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// RemoveJournal deletes a sweep's journal file — called when the sweep
// is pruned or removed from the registry, so the journal directory
// stays bounded by sweep retention. Removing a missing journal is not
// an error.
func (s *Store) RemoveJournal(id string) error {
	if !ValidSweepID(id) {
		return fmt.Errorf("store: journal: invalid sweep id %q", id)
	}
	if err := os.Remove(s.journalPath(id)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("store: journal %s: %w", id, err)
	}
	return nil
}

// JournalEntry is one scanned journal: the manifest, the surviving
// records (last record per index wins; each has an index within the
// manifest's scenarios and the manifest's hash for it), and the end
// disposition ("" for an incomplete sweep — the ones recovery
// re-adopts).
type JournalEntry struct {
	Manifest       SweepManifest
	Records        []ScenarioRecord
	EndDisposition string
	Path           string

	payload []byte // the raw payload line; nil for a pre-split journal
}

// Payload decodes the sweep's spec and scenarios JSON: from the payload
// line, or from the header of a journal written before the split. The
// scan never decodes it, so a malformed payload surfaces here, as an
// error, and only to the caller that needs it.
func (e *JournalEntry) Payload() (spec, scenarios json.RawMessage, err error) {
	if e.payload == nil {
		m := &e.Manifest
		if len(m.SpecJSON) == 0 && len(m.ScenariosJSON) == 0 {
			return nil, nil, errors.New("store: journal: no payload line")
		}
		return m.SpecJSON, m.ScenariosJSON, nil
	}
	var line journalLine
	if err := json.Unmarshal(e.payload, &line); err != nil {
		return nil, nil, fmt.Errorf("store: journal payload: %w", err)
	}
	if line.Type != "payload" || line.Payload == nil {
		return nil, nil, fmt.Errorf("store: journal payload: type %q", line.Type)
	}
	return line.Payload.Spec, line.Payload.Scenarios, nil
}

// ScanJournals reads every journal under the store, oldest first
// (manifest creation time). A torn trailing line — the worst a crash
// mid-append can leave — truncates that journal's records at the tear;
// a journal whose manifest line itself is unreadable is quarantined
// like a corrupt result entry.
func (s *Store) ScanJournals() ([]JournalEntry, error) {
	dir := filepath.Join(s.dir, journalDirName)
	files, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: journal scan: %w", err)
	}
	var out []JournalEntry
	for _, f := range files {
		name := f.Name()
		if f.IsDir() || !strings.HasSuffix(name, journalSuffix) {
			continue
		}
		if !ValidSweepID(strings.TrimSuffix(name, journalSuffix)) {
			continue
		}
		path := filepath.Join(dir, name)
		e, err := readJournal(path)
		if err != nil {
			s.mu.Lock()
			s.quarantine(path)
			s.corrupt++
			s.mu.Unlock()
			continue
		}
		out = append(out, *e)
	}
	sort.SliceStable(out, func(i, k int) bool {
		return out[i].Manifest.CreatedUnixNano < out[k].Manifest.CreatedUnixNano
	})
	return out, nil
}

// readJournal reads one journal file in a single read and parses it.
func readJournal(path string) (*JournalEntry, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	e, err := parseJournal(b)
	if err != nil {
		return nil, err
	}
	e.Path = path
	return e, nil
}

var newline = []byte{'\n'}

// parseJournal decodes a journal's header and records, keeping the
// payload line undecoded. Only a missing or malformed header is an
// error; any later undecodable line is treated as the torn tail of a
// crash and parsing stops there, keeping what came before. A record
// whose index is outside the header's scenarios, or whose hash is not
// the header's hash for that index, is dropped: it cannot describe this
// sweep.
func parseJournal(b []byte) (*JournalEntry, error) {
	line, rest, _ := bytes.Cut(b, newline)
	var first journalLine
	if err := json.Unmarshal(line, &first); err != nil {
		return nil, fmt.Errorf("manifest line: %w", err)
	}
	if first.Type != "sweep" || first.Sweep == nil {
		return nil, fmt.Errorf("manifest line: type %q", first.Type)
	}
	e := &JournalEntry{Manifest: *first.Sweep}
	hashes := e.Manifest.ScenarioHashes
	if len(e.Manifest.SpecJSON) == 0 && len(e.Manifest.ScenariosJSON) == 0 {
		e.payload, rest, _ = bytes.Cut(rest, newline)
	}
	latest := make(map[int]int) // scenario index → position in e.Records
	for len(rest) > 0 {
		line, rest, _ = bytes.Cut(rest, newline)
		var l journalLine
		if err := json.Unmarshal(line, &l); err != nil {
			break // the torn tail
		}
		switch l.Type {
		case "scenario":
			rec := l.Scenario
			if rec == nil || rec.Index < 0 || rec.Index >= len(hashes) || rec.Hash != hashes[rec.Index] {
				continue
			}
			if pos, ok := latest[rec.Index]; ok {
				e.Records[pos] = *rec
				continue
			}
			latest[rec.Index] = len(e.Records)
			e.Records = append(e.Records, *rec)
		case "end":
			e.EndDisposition = l.Disposition
			if e.EndDisposition == "" {
				e.EndDisposition = "complete"
			}
			return e, nil
		}
	}
	return e, nil
}

// JournalCount returns the journal files currently on disk — test and
// operator introspection, not a hot path.
func (s *Store) JournalCount() int {
	files, err := os.ReadDir(filepath.Join(s.dir, journalDirName))
	if err != nil {
		return 0
	}
	n := 0
	for _, f := range files {
		if !f.IsDir() && strings.HasSuffix(f.Name(), journalSuffix) {
			n++
		}
	}
	return n
}

// Has reports whether a durable result entry exists for the key without
// reading it: the index first, then a disk probe (a sibling node
// sharing the directory may have Put the key). Recovery uses this to
// decide whether a journaled "done" record can be trusted without
// loading every result at startup.
func (s *Store) Has(specHash, scenHash string) bool {
	key := specHash + "/" + scenHash
	s.mu.Lock()
	_, ok := s.index[key]
	s.mu.Unlock()
	if ok {
		return true
	}
	if !validKey(specHash) || !validKey(scenHash) {
		return false
	}
	_, err := os.Stat(s.EntryPath(specHash, scenHash))
	return err == nil
}
