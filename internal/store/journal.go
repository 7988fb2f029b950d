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
//	{"type":"end","disposition":"complete","tally":{"done":5,"cached":2,"failed":1}} // only once every scenario is terminal
//
// The header and payload lines are written together with the store's
// temp-file + fsync + atomic-rename discipline, so a journal is visible
// with both complete or not at all. Records of scenarios already final
// at submission (memory-cache hits) may come in that same create, and
// when they cover every scenario so does the end line: such a journal
// is sealed at create and takes no appends. Later records are appended
// with per-line fsync; a crash can therefore leave at most one torn
// trailing line, which the scan tolerates (everything before it is
// kept). OpenJournal cuts the file back to the record lines the scan
// reads before a resumed sweep appends again — so a torn line, or one
// an older build fused by appending onto a torn line, goes with
// whatever follows it — and the appended records are read and tallied
// alike. A journal without the end line is an incomplete sweep —
// exactly the crash evidence recovery looks for. ScanJournals reads and
// parses the files on min(GOMAXPROCS, files) goroutines; its result,
// quarantines and counts are those of reading them one by one.
//
// The payload — the spec and the scenario list, most of a journal's
// bytes — sits on a line of its own so the scan can keep it as raw
// bytes: a finished sweep is served from the header and records alone,
// and only resuming an incomplete sweep decodes the payload
// (JournalEntry.Payload). Journals written before the split carry spec
// and scenarios inline in the header and no names; they still read, the
// inline fields serving as the payload.
//
// The end line's tally counts the records the scan keeps, by state. A
// journal whose last line is an end line with a tally that fits its
// header is read from the header and that line alone: the record lines
// stay raw bytes until JournalEntry.Records decodes them, so a finished
// sweep's summary costs no record decode. The tally is optional; a
// journal without one (written before it, incomplete, or with a tally
// that cannot fit) has its records decoded by the scan.
//
// The scan's header, end-line and record decodes go through decodeLine
// (journal_decode.go). A header, record or end line laid out exactly as
// encoding/json writes it — field order, no whitespace, ASCII strings
// without escapes, plain numbers — takes a fast path without
// reflection; any other line, a pre-split header or one with escapes
// among them, goes to json.Unmarshal. json.Unmarshal remains the
// fallback and the reference: the fast path decodes every line it
// takes to the value json.Unmarshal gives, so what the scan keeps does
// not depend on which path read a line.

import (
	"bufio"
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

// Tally counts, by state, the records the scan keeps of a journal —
// what its end line carries so a finished sweep's summary needs no
// record decoded.
type Tally struct {
	Done   int `json:"done"`
	Cached int `json:"cached"`
	Failed int `json:"failed"`
}

// fits reports whether t can count the kept records of n scenarios: no
// count below zero, and no more records than scenarios.
func (t *Tally) fits(n int) bool {
	return t != nil && t.Done >= 0 && t.Cached >= 0 && t.Failed >= 0 &&
		t.Done <= n && t.Cached <= n && t.Failed <= n && t.Done+t.Cached+t.Failed <= n
}

// journalLine is the NDJSON envelope of every journal line.
type journalLine struct {
	Type        string          `json:"type"` // sweep | payload | scenario | end
	Sweep       *SweepManifest  `json:"sweep,omitempty"`
	Payload     *sweepPayload   `json:"payload,omitempty"`
	Scenario    *ScenarioRecord `json:"scenario,omitempty"`
	Disposition string          `json:"disposition,omitempty"` // end: complete | cancelled
	Tally       *Tally          `json:"tally,omitempty"`       // end: the kept records by state
}

// recordFits reports whether rec can describe scenario rec.Index of a
// sweep with these hashes: the index is in range and the hash is the
// header's for it. The scan drops every record that does not fit.
func recordFits(rec *ScenarioRecord, hashes []string) bool {
	return rec.Index >= 0 && rec.Index < len(hashes) && rec.Hash == hashes[rec.Index]
}

// keptStates follows, per scenario index, the state of the record the
// scan will keep: one that fits, the last one for its index.
type keptStates struct {
	hashes []string
	state  []string
	has    []bool
	left   int // indices without a kept record
}

func newKeptStates(hashes []string) *keptStates {
	return &keptStates{hashes: hashes, state: make([]string, len(hashes)), has: make([]bool, len(hashes)), left: len(hashes)}
}

func (k *keptStates) add(rec *ScenarioRecord) {
	if !recordFits(rec, k.hashes) {
		return
	}
	if !k.has[rec.Index] {
		k.has[rec.Index] = true
		k.left--
	}
	k.state[rec.Index] = rec.State
}

// coversAll reports whether every scenario has a kept record.
func (k *keptStates) coversAll() bool { return len(k.hashes) > 0 && k.left == 0 }

func (k *keptStates) tally() *Tally {
	var t Tally
	for i, st := range k.state {
		if !k.has[i] {
			continue
		}
		switch st {
		case "done":
			t.Done++
		case "cached":
			t.Cached++
		case "failed":
			t.Failed++
		}
	}
	return &t
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
	kept     *keptStates // the records written so far, as the scan will keep them: End's tally
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
	kept := newKeptStates(m.ScenarioHashes)
	for i := range recs {
		kept.add(&recs[i])
	}
	sealed := kept.coversAll()
	err := writeAtomic(path, func(f *os.File) error {
		hdr := *m
		hdr.SpecJSON, hdr.ScenariosJSON = nil, nil
		bw := bufio.NewWriter(f)
		enc := json.NewEncoder(bw)
		err := enc.Encode(journalLine{Type: "sweep", Sweep: &hdr})
		if err == nil {
			err = enc.Encode(journalLine{Type: "payload", Payload: &sweepPayload{Spec: m.SpecJSON, Scenarios: m.ScenariosJSON}})
		}
		for i := 0; i < len(recs) && err == nil; i++ {
			err = enc.Encode(journalLine{Type: "scenario", Scenario: &recs[i]})
		}
		if sealed && err == nil {
			err = enc.Encode(journalLine{Type: "end", Disposition: "complete", Tally: kept.tally()})
		}
		if err == nil {
			err = bw.Flush()
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("store: journal %s: %w", m.ID, err)
	}
	if sealed {
		return &SweepJournal{s: s, path: path, sealed: true}, nil
	}
	return s.openJournalAppend(path, kept)
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
// last one. The file is first cut back to the record lines the scan
// reads (mendJournal), and their records count toward End's tally.
func (s *Store) OpenJournal(id string) (*SweepJournal, error) {
	if !ValidSweepID(id) {
		return nil, fmt.Errorf("store: journal: invalid sweep id %q", id)
	}
	path := s.journalPath(id)
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: journal %s: %w", id, err)
	}
	e, rest, err := parseHeader(b)
	if err != nil {
		return nil, fmt.Errorf("store: journal %s: %w", id, err)
	}
	recs, _, n := scanRecords(rest, e.Manifest.ScenarioHashes)
	if err := mendJournal(path, b, len(b)-len(rest)+n); err != nil {
		return nil, fmt.Errorf("store: journal %s: %w", id, err)
	}
	kept := newKeptStates(e.Manifest.ScenarioHashes)
	for i := range recs {
		kept.add(&recs[i])
	}
	return s.openJournalAppend(path, kept)
}

// mendJournal cuts the journal at path, holding b, back to its first
// size bytes — the header, the payload and the record lines the scan
// reads — and ends it with a newline, fsynced, before anything is
// appended. The cut drops the line the scan stops at and all after it:
// a torn fragment a crash mid-append left, a line an older build made
// by appending a record onto such a fragment, or an end line, which a
// resumed sweep will write anew. Appended onto a fragment, the next
// record would fuse with it into one undecodable line; appended after
// a line the scan stops at, records would count in End's tally but
// never be read. A last record line the scan reads that lacks only its
// newline gets one.
func mendJournal(path string, b []byte, size int) error {
	if size == len(b) && bytes.HasSuffix(b, newline) {
		return nil
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if size < len(b) {
		err = f.Truncate(int64(size))
	}
	if err == nil && !bytes.HasSuffix(b[:size], newline) {
		_, err = f.WriteAt(newline, int64(size))
	}
	if err == nil {
		err = f.Sync()
	}
	return errors.Join(err, f.Close())
}

func (s *Store) openJournalAppend(path string, kept *keptStates) (*SweepJournal, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: journal: %w", err)
	}
	return &SweepJournal{s: s, path: path, f: f, kept: kept}, nil
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
	j.mu.Lock()
	defer j.mu.Unlock()
	err := j.appendLocked(journalLine{Type: "scenario", Scenario: &rec})
	if err == nil {
		j.kept.add(&rec)
	}
	return err
}

// End records the sweep's disposition ("complete" or "cancelled"),
// with the tally of the journal's records, and closes the journal. A
// journal without an end line is what recovery re-adopts, so End must
// only be called once every scenario is terminal. On a journal sealed
// at create End is a silent no-op.
func (j *SweepJournal) End(disposition string) error {
	if j.sealed {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	err := j.appendLocked(journalLine{Type: "end", Disposition: disposition, Tally: j.kept.tally()})
	if j.f != nil {
		_ = j.f.Close()
		j.f = nil
	}
	return err
}

// appendLocked writes one line and fsyncs it. Callers hold j.mu.
func (j *SweepJournal) appendLocked(line journalLine) error {
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

// JournalEntry is one scanned journal: the manifest, its records (see
// Records), and the end disposition ("" for an incomplete sweep — the
// ones recovery re-adopts).
type JournalEntry struct {
	Manifest       SweepManifest
	EndDisposition string
	// Tally is the end line's count of the kept records by state, set
	// only when the scan left the records undecoded (see Records).
	Tally *Tally
	Path  string

	payload []byte           // the raw payload line; nil for a pre-split journal
	records []ScenarioRecord // decoded by the scan (Tally == nil)
	raw     []byte           // the record lines, undecoded (Tally != nil)
}

// Records returns the surviving records: last record per index wins,
// and each has an index within the manifest's scenarios and the
// manifest's hash for it. The scan decodes them itself, except in a
// journal whose last line is an end line with a tally that fits the
// header: there it keeps the record lines as raw bytes, and each call
// decodes them. Should a middle line of such a journal not decode, or
// be an end line of its own — a file edited by hand or damaged on disk
// — the records are those before it, as the full scan keeps, though the
// sweep reads finished. A line an older build fused onto a torn
// fragment never comes before a tally: the journal is read in full
// when its sweep resumes, and OpenJournal cuts that line and all after
// it before the resumed sweep appends.
func (e JournalEntry) Records() []ScenarioRecord {
	if e.Tally == nil {
		return e.records
	}
	recs, _, _ := scanRecords(e.raw, e.Manifest.ScenarioHashes)
	return recs
}

// WithoutPayload returns e without its payload — the payload line, a
// slice of the scan's read of the whole file, or a pre-split header's
// inline fields: what a caller keeps past the scan, so that it pins
// neither that buffer nor the bulk of the journal's bytes.
func (e JournalEntry) WithoutPayload() JournalEntry {
	e.payload = nil
	e.Manifest.SpecJSON, e.Manifest.ScenariosJSON = nil, nil
	return e
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
// (manifest creation time, ties in file-name order). The files are read
// and parsed on min(GOMAXPROCS, files) goroutines; what the scan
// returns, quarantines and counts does not depend on that number. The
// header, end and record lines that encoding/json wrote with plain
// ASCII strings decode on decodeLine's fast path, every other line
// through json.Unmarshal, the reference both paths agree with. A
// torn trailing line — the worst a crash mid-append can leave —
// truncates that journal's records at the tear; a journal whose
// manifest line itself is unreadable is quarantined like a corrupt
// result entry.
func (s *Store) ScanJournals() ([]JournalEntry, error) {
	dir := filepath.Join(s.dir, journalDirName)
	files, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: journal scan: %w", err)
	}
	var paths []string
	for _, f := range files {
		name := f.Name()
		if f.IsDir() || !strings.HasSuffix(name, journalSuffix) {
			continue
		}
		if !ValidSweepID(strings.TrimSuffix(name, journalSuffix)) {
			continue
		}
		paths = append(paths, filepath.Join(dir, name))
	}
	read := make([]*JournalEntry, len(paths)) // nil: the header did not parse
	parallelFor(len(paths), func(i int) {
		read[i], _ = readJournal(paths[i])
	})
	out := make([]JournalEntry, 0, len(paths))
	for i, e := range read {
		if e == nil {
			s.mu.Lock()
			s.quarantine(paths[i])
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

// parseJournal decodes a journal's header, keeping the payload line
// undecoded, then its last line. When that is an end line whose tally
// fits the header, the record lines between are kept undecoded (cloned,
// so they pin nothing else of b); otherwise scanRecords decodes them.
// Only a missing or malformed header is an error.
func parseJournal(b []byte) (*JournalEntry, error) {
	e, rest, err := parseHeader(b)
	if err != nil {
		return nil, err
	}
	hashes := e.Manifest.ScenarioHashes
	body := bytes.TrimSuffix(rest, newline)
	cut := bytes.LastIndexByte(body, '\n') + 1
	var last journalLine
	if decodeLine(body[cut:], &last) == nil && last.Type == "end" && last.Tally.fits(len(hashes)) {
		e.raw, e.Tally = bytes.Clone(rest[:cut]), last.Tally
		e.EndDisposition = endDisposition(last)
		return e, nil
	}
	e.records, e.EndDisposition, _ = scanRecords(rest, hashes)
	return e, nil
}

// parseHeader decodes a journal's header line and sets its payload line
// aside undecoded, returning the entry and the record lines after them.
// Only a missing or malformed header is an error.
func parseHeader(b []byte) (*JournalEntry, []byte, error) {
	line, rest, _ := bytes.Cut(b, newline)
	var first journalLine
	if err := decodeLine(line, &first); err != nil {
		return nil, nil, fmt.Errorf("manifest line: %w", err)
	}
	if first.Type != "sweep" || first.Sweep == nil {
		return nil, nil, fmt.Errorf("manifest line: type %q", first.Type)
	}
	e := &JournalEntry{Manifest: *first.Sweep}
	if len(e.Manifest.SpecJSON) == 0 && len(e.Manifest.ScenariosJSON) == 0 {
		e.payload, rest, _ = bytes.Cut(rest, newline)
	}
	return e, rest, nil
}

// scanRecords is the record loop: it decodes b line by line up to the
// first end line, returning the records to keep, the end's disposition
// ("" when there is no end line) and n, the length of the record lines
// it read: b up to the line it stopped at, all of b if none. The first
// undecodable line is taken for the torn tail of a crash: the loop
// stops there, keeping what came before. A record whose index is
// outside the header's scenarios, or whose hash is not the header's
// hash for that index, is dropped: it cannot describe this sweep.
func scanRecords(b []byte, hashes []string) (recs []ScenarioRecord, disposition string, n int) {
	// pos[i] is one past scenario i's position in recs, 0 for none. Both
	// are sized by the hashes the header decoded, so by the file.
	var pos []int
	for rest := b; len(rest) > 0; n = len(b) - len(rest) {
		var line []byte
		line, rest, _ = bytes.Cut(rest, newline)
		var l journalLine
		if err := decodeLine(line, &l); err != nil {
			break // the torn tail
		}
		switch l.Type {
		case "scenario":
			rec := l.Scenario
			if rec == nil || !recordFits(rec, hashes) {
				continue
			}
			if pos == nil {
				pos = make([]int, len(hashes))
				recs = make([]ScenarioRecord, 0, len(hashes))
			}
			if p := pos[rec.Index]; p > 0 {
				recs[p-1] = *rec
				continue
			}
			recs = append(recs, *rec)
			pos[rec.Index] = len(recs)
		case "end":
			return recs, endDisposition(l), n
		}
	}
	return recs, "", n
}

// endDisposition is an end line's disposition, "complete" when blank.
func endDisposition(l journalLine) string {
	if l.Disposition == "" {
		return "complete"
	}
	return l.Disposition
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
