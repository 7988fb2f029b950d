package store

// Tests for the durable sweep journal: manifest round-trip, append /
// end semantics, crash artifacts (torn trailing lines), corrupt-manifest
// quarantine, last-record-per-index resolution, the header/payload
// layout and pre-split journals, records that do not fit the manifest,
// records written in the create (and a journal sealed there), the
// parallel scan against a one-by-one read, the isolation invariant that
// the sweeps/ directory never leaks into the result-entry scan, the end
// line's tally and the tail read behind it, and resuming a journal with
// a torn tail or a line an older build fused onto one. The sweep log
// itself — group commit, tombstones, rewrites, shared directories and
// the move of per-file journals — is tested in journal_log_test.go.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func sampleManifest(id string) *SweepManifest {
	return &SweepManifest{
		ID:              id,
		Key:             "client-key-1",
		Name:            "capacity-study",
		SpecHash:        specA,
		ScenarioHashes:  []string{scenA, scenB},
		SpecJSON:        json.RawMessage(`{"preset":"frontier"}`),
		ScenariosJSON:   json.RawMessage(`[{"name":"a"},{"name":"b"}]`),
		MaxConcurrent:   4,
		TimeoutSec:      30,
		MaxAttempts:     3,
		CreatedUnixNano: 12345,
	}
}

// TestJournalRoundTrip pins the full life of a journal: create with a
// manifest, append terminal records, end — and ScanJournals returns the
// same manifest, the surviving records, and the disposition.
func TestJournalRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := sampleManifest("sw-1a2b-f00d")
	j, err := s.CreateJournal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(ScenarioRecord{Index: 0, Hash: scenA, State: "done", Attempts: 1, WallSec: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(ScenarioRecord{Index: 1, Hash: scenB, State: "failed", Error: "boom", Attempts: 3}); err != nil {
		t.Fatal(err)
	}
	if err := j.End("complete"); err != nil {
		t.Fatal(err)
	}

	entries, err := s.ScanJournals()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("ScanJournals returned %d entries, want 1", len(entries))
	}
	e := entries[0]
	if e.Manifest.ID != m.ID || e.Manifest.Key != m.Key || e.Manifest.SpecHash != m.SpecHash {
		t.Fatalf("manifest mismatch: %+v", e.Manifest)
	}
	spec, scenarios, err := e.Payload()
	if err != nil {
		t.Fatal(err)
	}
	if string(spec) != string(m.SpecJSON) {
		t.Fatalf("spec JSON mismatch: %s", spec)
	}
	if string(scenarios) != string(m.ScenariosJSON) {
		t.Fatalf("scenarios JSON mismatch: %s", scenarios)
	}
	if e.EndDisposition != "complete" {
		t.Fatalf("disposition = %q, want complete", e.EndDisposition)
	}
	if len(e.Records()) != 2 {
		t.Fatalf("records = %d, want 2", len(e.Records()))
	}
	if e.Records()[0].State != "done" || e.Records()[0].WallSec != 0.5 {
		t.Fatalf("record 0 mismatch: %+v", e.Records()[0])
	}
	if e.Records()[1].State != "failed" || e.Records()[1].Error != "boom" || e.Records()[1].Attempts != 3 {
		t.Fatalf("record 1 mismatch: %+v", e.Records()[1])
	}
	st := s.Stats()
	if st.JournalCreates != 1 || st.JournalAppends != 3 || st.JournalErrors != 0 {
		t.Fatalf("metrics = creates %d appends %d errors %d", st.JournalCreates, st.JournalAppends, st.JournalErrors)
	}
}

// TestJournalTornTailTolerated: a crash mid-append leaves a torn
// trailing line; the scan keeps everything before the tear and reports
// the sweep incomplete.
func TestJournalTornTailTolerated(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.CreateJournal(sampleManifest("sw-dead-beef"))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(ScenarioRecord{Index: 0, Hash: scenA, State: "done"}); err != nil {
		t.Fatal(err)
	}
	j.Detach() // the log stays as a kill -9 would leave it
	appendLog(t, s, `sw-dead-beef {"type":"scenario","scenario":{"ind`)

	entries, err := s.ScanJournals()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("ScanJournals returned %d entries, want 1", len(entries))
	}
	e := entries[0]
	if e.EndDisposition != "" {
		t.Fatalf("torn journal reported disposition %q, want incomplete", e.EndDisposition)
	}
	if len(e.Records()) != 1 || e.Records()[0].State != "done" {
		t.Fatalf("records before the tear lost: %+v", e.Records())
	}
	if s.Stats().CorruptQuarantined != 0 {
		t.Fatal("torn tail must not quarantine the journal")
	}
}

// TestJournalCorruptManifestQuarantined: a journal whose first line is
// unreadable is excluded from the scan, counted like a corrupt result
// entry, and tombstoned, so a second scan neither reads nor counts it
// again.
func TestJournalCorruptManifestQuarantined(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.CreateJournal(sampleManifest("sw-900d-0"))
	if err != nil {
		t.Fatal(err)
	}
	j.Detach()
	appendLog(t, s, "sw-bad-0 not json at all\n")
	for scan := 0; scan < 2; scan++ {
		entries, err := s.ScanJournals()
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Manifest.ID != "sw-900d-0" {
			t.Fatalf("scan %d: corrupt journal surfaced, or the good one went: %+v", scan, entries)
		}
		if s.Stats().CorruptQuarantined != 1 {
			t.Fatalf("scan %d: CorruptQuarantined = %d, want 1", scan, s.Stats().CorruptQuarantined)
		}
	}
	if n := s.JournalCount(); n != 1 {
		t.Fatalf("JournalCount = %d after the quarantine, want 1", n)
	}
}

// TestJournalLastRecordPerIndexWins: a retried scenario appends a second
// record for the same index; the scan keeps only the newest, in the
// original position.
func TestJournalLastRecordPerIndexWins(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.CreateJournal(sampleManifest("sw-aa-bb"))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(ScenarioRecord{Index: 0, Hash: scenA, State: "failed", Error: "transient"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(ScenarioRecord{Index: 1, Hash: scenB, State: "done"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(ScenarioRecord{Index: 0, Hash: scenA, State: "done", Attempts: 2}); err != nil {
		t.Fatal(err)
	}
	j.Detach()
	entries, err := s.ScanJournals()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || len(entries[0].Records()) != 2 {
		t.Fatalf("unexpected scan result: %+v", entries)
	}
	r0 := entries[0].Records()[0]
	if r0.Index != 0 || r0.State != "done" || r0.Attempts != 2 {
		t.Fatalf("last record for index 0 did not win: %+v", r0)
	}
}

// TestJournalReopenAppend: OpenJournal on an existing journal keeps
// appending to the same file — the recovered-sweep resume path.
func TestJournalReopenAppend(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.CreateJournal(sampleManifest("sw-11-22"))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(ScenarioRecord{Index: 0, Hash: scenA, State: "done"}); err != nil {
		t.Fatal(err)
	}
	j.Detach()

	j2, err := s.OpenJournal("sw-11-22")
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Append(ScenarioRecord{Index: 1, Hash: scenB, State: "cached", CacheHit: true}); err != nil {
		t.Fatal(err)
	}
	if err := j2.End("complete"); err != nil {
		t.Fatal(err)
	}
	entries, err := s.ScanJournals()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || len(entries[0].Records()) != 2 || entries[0].EndDisposition != "complete" {
		t.Fatalf("reopened journal lost state: %+v", entries)
	}
	if !entries[0].Records()[1].CacheHit {
		t.Fatal("cache_hit flag lost across reopen")
	}
	if _, err := s.OpenJournal("sw-no-such"); err == nil {
		t.Fatal("OpenJournal on a missing journal must error")
	}
}

// TestJournalRemove: removal deletes the file, is idempotent, and
// rejects invalid IDs before touching the filesystem.
func TestJournalRemove(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.CreateJournal(sampleManifest("sw-ff-ee"))
	if err != nil {
		t.Fatal(err)
	}
	j.Detach()
	if s.JournalCount() != 1 {
		t.Fatalf("JournalCount = %d, want 1", s.JournalCount())
	}
	if err := s.RemoveJournal("sw-ff-ee"); err != nil {
		t.Fatal(err)
	}
	if s.JournalCount() != 0 {
		t.Fatalf("journal survived removal")
	}
	if err := s.RemoveJournal("sw-ff-ee"); err != nil {
		t.Fatalf("removing a missing journal must be a no-op, got %v", err)
	}
	if err := s.RemoveJournal("../escape"); err == nil {
		t.Fatal("invalid id accepted by RemoveJournal")
	}
}

// TestJournalDirInvisibleToEntryScan: the sweeps/ directory must never
// be mistaken for a spec-hash directory by the result-entry startup
// scan, and journals must not count as entries.
func TestJournalDirInvisibleToEntryScan(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(specA, scenA, sampleResult()); err != nil {
		t.Fatal(err)
	}
	j, err := s.CreateJournal(sampleManifest("sw-ab-cd"))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(ScenarioRecord{Index: 0, Hash: scenA, State: "done"}); err != nil {
		t.Fatal(err)
	}
	j.Detach()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 {
		t.Fatalf("reopened store indexed %d entries, want 1 (journal leaked into entry scan)", s2.Len())
	}
	if s2.Stats().CorruptQuarantined != 0 {
		t.Fatal("journal quarantined by the entry scan")
	}
	if s2.JournalCount() != 1 {
		t.Fatalf("journal lost across reopen: count = %d", s2.JournalCount())
	}
}

// TestStoreHas: Has sees both indexed entries and entries another
// process wrote to the shared directory, without reading them.
func TestStoreHas(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Has(specA, scenA) {
		t.Fatal("Has on an empty store")
	}
	if err := s.Put(specA, scenA, sampleResult()); err != nil {
		t.Fatal(err)
	}
	if !s.Has(specA, scenA) {
		t.Fatal("Has missed an indexed entry")
	}
	// A sibling store over the same directory writes a second key; the
	// first store's index has never seen it, but the disk probe must.
	sib, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := sib.Put(specA, scenB, sampleResult()); err != nil {
		t.Fatal(err)
	}
	if !s.Has(specA, scenB) {
		t.Fatal("Has missed a sibling-written entry on disk")
	}
	if s.Has(specA, "ZZ-not-hex") {
		t.Fatal("Has accepted an invalid key")
	}
}

// TestValidSweepID pins the id alphabet: sw- prefix, lowercase hex and
// dashes only, bounded length.
func TestValidSweepID(t *testing.T) {
	good := []string{"sw-1", "sw-18f3a2b4c5d6e7f8-9abc", "sw-a-b-c"}
	for _, id := range good {
		if !ValidSweepID(id) {
			t.Errorf("ValidSweepID(%q) = false, want true", id)
		}
	}
	bad := []string{"", "sw-", "sw", "sweep-12", "sw-XYZ", "sw-12/..", "sw-12.journal", "sw-1 2",
		"sw-" + strings.Repeat("a", 80)}
	for _, id := range bad {
		if ValidSweepID(id) {
			t.Errorf("ValidSweepID(%q) = true, want false", id)
		}
	}
}

// TestJournalHeaderCarriesNoPayload: CreateJournal writes a lean header
// (names included, no spec or scenarios) and the payload on the second
// line; the scan keeps the payload undecoded until Payload is called.
func TestJournalHeaderCarriesNoPayload(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := sampleManifest("sw-7e-57")
	m.Names = []string{"a", "synthetic"}
	j, err := s.CreateJournal(m)
	if err != nil {
		t.Fatal(err)
	}
	j.Detach()
	b := journalBytes(t, s, m.ID)
	lines := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("journal has %d lines, want header + payload:\n%s", len(lines), b)
	}
	var hdr struct {
		Type  string                     `json:"type"`
		Sweep map[string]json.RawMessage `json:"sweep"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil || hdr.Type != "sweep" {
		t.Fatalf("header line %q: %v", lines[0], err)
	}
	for _, k := range []string{"spec", "scenarios"} {
		if _, ok := hdr.Sweep[k]; ok {
			t.Fatalf("header carries the payload field %q", k)
		}
	}
	if !strings.HasPrefix(lines[1], `{"type":"payload",`) {
		t.Fatalf("second line is not the payload: %s", lines[1])
	}

	entries, err := s.ScanJournals()
	if err != nil || len(entries) != 1 {
		t.Fatalf("scan: %v, %d entries", err, len(entries))
	}
	e := entries[0]
	if len(e.Manifest.SpecJSON) != 0 || len(e.Manifest.ScenariosJSON) != 0 {
		t.Fatal("scan decoded the payload into the manifest")
	}
	if got := strings.Join(e.Manifest.Names, ","); got != "a,synthetic" {
		t.Fatalf("names = %q", got)
	}
	if e.payload == nil {
		t.Fatal("payload line not kept")
	}
}

// TestJournalDropsRecordsOutsideManifest: the scan fails closed on
// records that cannot describe the sweep — an index outside the
// manifest's scenarios, or a hash other than the manifest's for that
// index — and keeps the rest.
func TestJournalDropsRecordsOutsideManifest(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.CreateJournal(sampleManifest("sw-ba-d0"))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []ScenarioRecord{
		{Index: 0, Hash: scenA, State: "done"},
		{Index: 1, Hash: scenA, State: "done"}, // index 1's hash is scenB
		{Index: 2, Hash: scenB, State: "done"}, // two scenarios only
		{Index: -1, Hash: scenA, State: "done"},
		{Index: 0, Hash: "ffff0000", State: "failed"}, // must not override index 0
	} {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	j.Detach()
	entries, err := s.ScanJournals()
	if err != nil || len(entries) != 1 {
		t.Fatalf("scan: %v, %d entries", err, len(entries))
	}
	recs := entries[0].Records()
	if len(recs) != 1 || recs[0].Index != 0 || recs[0].State != "done" {
		t.Fatalf("records = %+v, want only index 0 done", recs)
	}
}

// TestJournalPayload: Payload returns the spec and scenarios of a
// journal written before the header/payload split from its header, and
// fails — without failing the scan, which never decodes the payload — on
// a payload line that does not decode, on a line of another type in its
// place, and when the payload line is missing.
func TestJournalPayload(t *testing.T) {
	old := `{"type":"sweep","sweep":{"id":"sw-0d-0e","spec_hash":"aaaa1111","scenario_hashes":["bbbb2222"],"spec":{"preset":"frontier"},"scenarios":[{"name":"a"}],"created_unix_nano":7}}` + "\n"
	e, err := parseJournal([]byte(old + `{"type":"end","disposition":"complete"}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	spec, scenarios, err := e.Payload()
	if err != nil {
		t.Fatal(err)
	}
	if string(spec) != `{"preset":"frontier"}` || string(scenarios) != `[{"name":"a"}]` || e.EndDisposition != "complete" {
		t.Fatalf("pre-split journal: payload %s / %s, disposition %q", spec, scenarios, e.EndDisposition)
	}

	hdr := `{"type":"sweep","sweep":{"id":"sw-1","spec_hash":"aaaa1111","scenario_hashes":["bbbb2222"],"names":["a"],"created_unix_nano":1}}`
	for name, body := range map[string]string{
		"garbled":    hdr + "\n{\"type\":\"payload\",\"payl\n{\"type\":\"end\"}\n",
		"wrong_type": hdr + "\n{\"type\":\"scenario\",\"scenario\":{\"index\":0,\"hash\":\"bbbb2222\",\"state\":\"done\"}}\n",
		"no_line":    hdr + "\n",
		"no_newline": hdr,
	} {
		e, err := parseJournal([]byte(body))
		if err != nil {
			t.Fatalf("%s: scan rejected the journal: %v", name, err)
		}
		if _, _, err := e.Payload(); err == nil {
			t.Fatalf("%s: Payload accepted a bad payload line", name)
		}
	}
}

// scanOne scans a store that holds exactly one journal.
func scanOne(t *testing.T, s *Store) JournalEntry {
	t.Helper()
	entries, err := s.ScanJournals()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("ScanJournals returned %d entries, want 1", len(entries))
	}
	return entries[0]
}

// recordsByIndex keys a scan's records by scenario index.
func recordsByIndex(recs []ScenarioRecord) map[int]ScenarioRecord {
	out := make(map[int]ScenarioRecord, len(recs))
	for _, r := range recs {
		out[r.Index] = r
	}
	return out
}

// TestJournalSealedAtCreate: records covering every scenario make the
// create write the end line too — one create, no append — and the
// sealed journal refuses appends, takes End as a no-op, and scans to
// the same manifest, records and disposition as a journal that got the
// same outcomes by appending.
func TestJournalSealedAtCreate(t *testing.T) {
	recs := []ScenarioRecord{
		{Index: 0, Hash: scenA, State: "cached", WallSec: 0.5, CacheHit: true},
		{Index: 1, Hash: scenB, State: "cached", WallSec: 0.25, CacheHit: true},
	}
	sealedStore, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := sampleManifest("sw-5ea1-0001")
	j, err := sealedStore.CreateJournal(m, recs[1], recs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(ScenarioRecord{Index: 0, Hash: scenA, State: "failed"}); !errors.Is(err, ErrJournalSealed) {
		t.Fatalf("Append on a sealed journal: %v, want ErrJournalSealed", err)
	}
	if err := j.End("cancelled"); err != nil {
		t.Fatalf("End on a sealed journal: %v", err)
	}
	b := journalBytes(t, sealedStore, m.ID)
	if lines := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n"); len(lines) != 5 ||
		!strings.Contains(lines[4], `"disposition":"complete"`) {
		t.Fatalf("sealed journal lines:\n%s", b)
	}
	if st := sealedStore.Stats(); st.JournalCreates != 1 || st.JournalAppends != 0 || st.JournalErrors != 0 {
		t.Fatalf("metrics = creates %d appends %d errors %d", st.JournalCreates, st.JournalAppends, st.JournalErrors)
	}

	appendedStore, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a, err := appendedStore.CreateJournal(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := a.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.End("complete"); err != nil {
		t.Fatal(err)
	}

	sealed, appended := scanOne(t, sealedStore), scanOne(t, appendedStore)
	if !reflect.DeepEqual(sealed.Manifest, appended.Manifest) {
		t.Fatalf("manifest %+v, appended journal has %+v", sealed.Manifest, appended.Manifest)
	}
	if !reflect.DeepEqual(recordsByIndex(sealed.Records()), recordsByIndex(appended.Records())) {
		t.Fatalf("records %+v, appended journal has %+v", sealed.Records(), appended.Records())
	}
	if sealed.EndDisposition != "complete" || appended.EndDisposition != "complete" {
		t.Fatalf("dispositions %q / %q, want complete", sealed.EndDisposition, appended.EndDisposition)
	}
}

// TestJournalRecordsInCreate: records covering only some scenarios ride
// in the create without sealing it — the journal stays incomplete and
// appendable, and the scan keeps create-time and appended records alike.
func TestJournalRecordsInCreate(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := sampleManifest("sw-5ea1-0002")
	// A duplicate record for one index does not cover the other, nor
	// does a record carrying another index's hash (the scan drops it).
	j, err := s.CreateJournal(m,
		ScenarioRecord{Index: 0, Hash: scenA, State: "cached", CacheHit: true},
		ScenarioRecord{Index: 0, Hash: scenA, State: "cached", CacheHit: true},
		ScenarioRecord{Index: 1, Hash: scenA, State: "cached", CacheHit: true})
	if err != nil {
		t.Fatal(err)
	}
	if e := scanOne(t, s); e.EndDisposition != "" || len(e.Records()) != 1 || e.Records()[0].State != "cached" {
		t.Fatalf("after create: disposition %q records %+v", e.EndDisposition, e.Records())
	}
	if err := j.Append(ScenarioRecord{Index: 1, Hash: scenB, State: "done", Attempts: 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.End("complete"); err != nil {
		t.Fatal(err)
	}
	e := scanOne(t, s)
	got := recordsByIndex(e.Records())
	if e.EndDisposition != "complete" || len(got) != 2 || got[0].State != "cached" || got[1].State != "done" {
		t.Fatalf("after end: disposition %q records %+v", e.EndDisposition, e.Records())
	}
	if st := s.Stats(); st.JournalCreates != 1 || st.JournalAppends != 2 {
		t.Fatalf("metrics = creates %d appends %d", st.JournalCreates, st.JournalAppends)
	}
}

// TestScanJournalsMatchesSequentialRead: the parallel scan returns
// exactly what splitting the log by sweep id and parsing the journals
// one by one, then stable-sorting them by creation time, returns
// (refScan), and counts and tombstones the same unreadable headers. The
// 3×GOMAXPROCS+1 journals (at least one of each kind) mix finished,
// incomplete, torn-tail and pre-split ones with unreadable headers,
// interleave in the log with a sweep tombstoned between, and share
// creation times so the sort's ties show.
func TestScanJournalsMatchesSequentialRead(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	n := max(3*runtime.GOMAXPROCS(0)+1, 5)
	var open []*SweepJournal
	for i := 0; i < n; i++ {
		m := sampleManifest(fmt.Sprintf("sw-%04x", i))
		m.CreatedUnixNano = int64((n - i) % 3)
		switch i % 5 {
		case 0, 1, 2: // finished, incomplete, torn tail
			j, err := s.CreateJournal(m)
			if err != nil {
				t.Fatal(err)
			}
			open = append(open, j)
			if i%5 == 2 {
				appendLog(t, s, m.ID+` {"type":"scenario","scenario":{"index":0,"ha`+"\n")
			}
		case 3: // pre-split: spec and scenarios in the header
			b, err := json.Marshal(journalLine{Type: "sweep", Sweep: m})
			if err != nil {
				t.Fatal(err)
			}
			appendLog(t, s, m.ID+" "+string(b)+"\n"+
				m.ID+` {"type":"scenario","scenario":{"index":0,"hash":"`+scenA+`","state":"failed","error":"boom"}}`+"\n"+
				m.ID+` {"type":"end","disposition":"cancelled"}`+"\n")
		case 4: // unreadable header
			appendLog(t, s, m.ID+` {"type":"sweep","sweep":`+"\n")
		}
	}
	gone, err := s.CreateJournal(sampleManifest("sw-90e"))
	if err != nil {
		t.Fatal(err)
	}
	gone.Detach()
	for k, j := range open {
		if err := j.Append(ScenarioRecord{Index: 1, Hash: scenB, State: "done", WallSec: float64(k)}); err != nil {
			t.Fatal(err)
		}
		if k%3 == 0 {
			err = j.End("complete")
		} else {
			j.Detach()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RemoveJournal("sw-90e"); err != nil {
		t.Fatal(err)
	}

	want, _, bad := refScan(logBytes(t, s))
	if len(want) == 0 || len(bad) == 0 {
		t.Fatalf("fixture reads %d good and %d bad journals, want both", len(want), len(bad))
	}
	got, err := s.ScanJournals()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parallel scan differs from the sequential read:\n got %+v\nwant %+v", got, want)
	}
	if c := s.Stats().CorruptQuarantined; c != uint64(len(bad)) {
		t.Fatalf("CorruptQuarantined = %d, want %d", c, len(bad))
	}
	if left := s.JournalCount(); left != len(want) {
		t.Fatalf("%d journals left in the log, want %d", left, len(want))
	}
}

// logBytes reads the store's whole log.
func logBytes(t *testing.T, s *Store) []byte {
	t.Helper()
	b, err := os.ReadFile(s.log.path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		t.Fatal(err)
	}
	return b
}

// splitLog indexes a log held in memory by sweep id (indexGroups).
func splitLog(b []byte) ([]*logGroup, int64) {
	groups, dead, _ := indexGroups(bytes.NewReader(b), int64(len(b)))
	return groups, dead
}

// journalBytes returns a sweep's journal as the scan reads it: its log
// lines after its last tombstone, without their ids.
func journalBytes(t *testing.T, s *Store, id string) []byte {
	t.Helper()
	b := logBytes(t, s)
	groups, _ := splitLog(b)
	for _, g := range groups {
		if g.id == id {
			jb, err := g.load(bytes.NewReader(b))
			if err != nil {
				t.Fatal(err)
			}
			return jb
		}
	}
	t.Fatalf("the log holds no journal of %s", id)
	return nil
}

// appendLog appends text, as it is, to the store's log.
func appendLog(t *testing.T, s *Store, text string) {
	t.Helper()
	appendRaw(t, s.log.path, text)
}

// writeJournalFile writes a per-file journal, as an earlier build left
// it, into the sweeps directory under dir.
func writeJournalFile(t *testing.T, dir, id, body string) string {
	t.Helper()
	sweeps := filepath.Join(dir, journalDirName)
	if err := os.MkdirAll(sweeps, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(sweeps, id+journalSuffix)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// appendRaw appends text to the file at path.
func appendRaw(t *testing.T, path, text string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(text); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// tallyOf counts records by state as an end line's tally does.
func tallyOf(recs []ScenarioRecord) Tally {
	var t Tally
	for _, r := range recs {
		switch r.State {
		case "done":
			t.Done++
		case "cached":
			t.Cached++
		case "failed":
			t.Failed++
		}
	}
	return t
}

// TestJournalTornTailResume: a sweep killed mid-append leaves a torn
// fragment at the log's end; the next write cuts it off first, so the
// resumed record starts a line of its own and the scan reads the end
// line and both records. Appended onto the fragment, the record would
// fuse with it into one undecodable line, and the sweep would read
// incomplete at every restart.
func TestJournalTornTailResume(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.CreateJournal(sampleManifest("sw-7042-0001"))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(ScenarioRecord{Index: 0, Hash: scenA, State: "done"}); err != nil {
		t.Fatal(err)
	}
	j.Detach()
	appendLog(t, s, `sw-7042-0001 {"type":"scenario","scenario":{"ind`)

	j2, err := s.OpenJournal("sw-7042-0001")
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Append(ScenarioRecord{Index: 1, Hash: scenB, State: "cached", CacheHit: true}); err != nil {
		t.Fatal(err)
	}
	if err := j2.End("complete"); err != nil {
		t.Fatal(err)
	}
	e := scanOne(t, s)
	got := recordsByIndex(e.Records())
	if e.EndDisposition != "complete" || len(got) != 2 || got[0].State != "done" || got[1].State != "cached" {
		t.Fatalf("resumed torn journal: disposition %q records %+v", e.EndDisposition, e.Records())
	}
	if e.Tally == nil || *e.Tally != (Tally{Done: 1, Cached: 1}) {
		t.Fatalf("tally %+v, want 1 done and 1 cached", e.Tally)
	}
	if b := logBytes(t, s); strings.Contains(string(b)+"\n", `{"ind`+"\n") {
		t.Fatalf("fragment left in the log:\n%s", b)
	}
}

// TestJournalReopenTerminatesWholeLastLine: a per-file journal of an
// earlier build whose last record lacks only its newline is one its
// scan kept, so moving it into the log terminates that line rather
// than dropping it, and it survives the resume.
func TestJournalReopenTerminatesWholeLastLine(t *testing.T) {
	dir := t.TempDir()
	m := sampleManifest("sw-7042-0002")
	hdr, err := json.Marshal(journalLine{Type: "sweep", Sweep: &SweepManifest{ID: m.ID, SpecHash: m.SpecHash, ScenarioHashes: m.ScenarioHashes}})
	if err != nil {
		t.Fatal(err)
	}
	writeJournalFile(t, dir, m.ID, string(hdr)+"\n"+`{"type":"payload","payload":{"spec":{},"scenarios":[]}}`+"\n"+
		`{"type":"scenario","scenario":{"index":0,"hash":"`+scenA+`","state":"failed","error":"boom"}}`)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if e := scanOne(t, s); len(e.Records()) != 1 {
		t.Fatalf("unterminated record not kept by the scan: %+v", e.Records())
	}
	j2, err := s.OpenJournal(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Append(ScenarioRecord{Index: 1, Hash: scenB, State: "done"}); err != nil {
		t.Fatal(err)
	}
	if err := j2.End("complete"); err != nil {
		t.Fatal(err)
	}
	e := scanOne(t, s)
	got := recordsByIndex(e.Records())
	if e.EndDisposition != "complete" || len(got) != 2 || got[0].Error != "boom" || got[1].State != "done" {
		t.Fatalf("disposition %q records %+v", e.EndDisposition, e.Records())
	}
	if e.Tally == nil || *e.Tally != (Tally{Done: 1, Failed: 1}) {
		t.Fatalf("tally %+v, want 1 done and 1 failed", e.Tally)
	}
}

// TestJournalReopenCutsFusedLine: in a journal an older build fused —
// it appended a resumed record onto a torn fragment, then another
// record and an end line without a tally — the scan stops at the fused
// line. Whether the journal reaches the log as a per-file journal moved
// at Open (which moves only the lines before the fused one) or has the
// fused line in the log itself, reopening it leaves its journal at the
// lines before the fused one, so the records a resume appends, and the
// tally End writes, are the ones the next scan reads.
func TestJournalReopenCutsFusedLine(t *testing.T) {
	m := sampleManifest("sw-7042-0003")
	m.ScenarioHashes = []string{scenA, scenB, "dddd4444"}
	fused := `{"type":"scenario","scenario":{"ind` +
		`{"type":"scenario","scenario":{"index":1,"hash":"` + scenB + `","state":"done"}}` + "\n" +
		`{"type":"scenario","scenario":{"index":2,"hash":"dddd4444","state":"done"}}` + "\n" +
		`{"type":"end","disposition":"complete"}` + "\n"
	for _, inLog := range []bool{false, true} {
		dir := t.TempDir()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		j, err := s.CreateJournal(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(ScenarioRecord{Index: 0, Hash: scenA, State: "done"}); err != nil {
			t.Fatal(err)
		}
		j.Detach()
		kept := journalBytes(t, s, m.ID)
		if inLog {
			for _, line := range strings.SplitAfter(fused, "\n") {
				if line != "" {
					appendLog(t, s, m.ID+" "+line)
				}
			}
		} else {
			if err := os.Remove(s.log.path); err != nil {
				t.Fatal(err)
			}
			writeJournalFile(t, dir, m.ID, string(kept)+fused)
			if s, err = Open(dir); err != nil {
				t.Fatal(err)
			}
		}
		if e := scanOne(t, s); e.EndDisposition != "" || len(e.Records()) != 1 {
			t.Fatalf("in log %v: fused journal read %q with records %+v, want incomplete with index 0's", inLog, e.EndDisposition, e.Records())
		}

		j2, err := s.OpenJournal(m.ID)
		if err != nil {
			t.Fatal(err)
		}
		if b := journalBytes(t, s, m.ID); string(b) != string(kept) {
			t.Fatalf("in log %v: reopened journal holds\n%s\nwant the lines before the fused one\n%s", inLog, b, kept)
		}
		for _, rec := range []ScenarioRecord{
			{Index: 1, Hash: scenB, State: "cached", CacheHit: true},
			{Index: 2, Hash: "dddd4444", State: "failed", Error: "boom"},
		} {
			if err := j2.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := j2.End("complete"); err != nil {
			t.Fatal(err)
		}
		e := scanOne(t, s)
		want := Tally{Done: 1, Cached: 1, Failed: 1}
		if e.EndDisposition != "complete" || e.Tally == nil || *e.Tally != want || len(e.Records()) != 3 || tallyOf(e.Records()) != want {
			t.Fatalf("in log %v: resumed fused journal: disposition %q, tally %+v, records %+v; want %+v", inLog, e.EndDisposition, e.Tally, e.Records(), want)
		}
		eager, disposition := parseEager(journalBytes(t, s, m.ID))
		if !reflect.DeepEqual(e.Records(), eager) || disposition != "complete" {
			t.Fatalf("in log %v: records %+v, decoding at scan time gives %+v (%q)", inLog, e.Records(), eager, disposition)
		}
	}
}

// TestJournalTallyCountsKeptRecords: the end line's tally counts the
// records the scan keeps — records from the create, appends, and a
// reopen's existing lines; the last record per index; none that does
// not fit the header — and the scan, reading it, leaves the records
// undecoded until Records, which returns what decoding them at scan
// time returns.
func TestJournalTallyCountsKeptRecords(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := sampleManifest("sw-7a11-0001")
	m.ScenarioHashes = []string{scenA, scenB, "dddd4444", "eeee5555"}
	j, err := s.CreateJournal(m,
		ScenarioRecord{Index: 0, Hash: scenA, State: "failed", Error: "transient"},
		ScenarioRecord{Index: 1, Hash: scenA, State: "done"}) // not index 1's hash
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(ScenarioRecord{Index: 1, Hash: scenB, State: "cached", CacheHit: true}); err != nil {
		t.Fatal(err)
	}
	j.Detach()
	j, err = s.OpenJournal(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []ScenarioRecord{
		{Index: 0, Hash: scenA, State: "done", Attempts: 2}, // overrides the failure
		{Index: 4, Hash: scenA, State: "done"},              // out of range
		{Index: 2, Hash: "dddd4444", State: "failed", Error: "boom"},
	} {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.End("cancelled"); err != nil {
		t.Fatal(err)
	}
	e := scanOne(t, s)
	if e.Tally == nil || e.records != nil || e.raw == nil {
		t.Fatalf("tallied journal: tally %+v, %d records decoded by the scan", e.Tally, len(e.records))
	}
	want := Tally{Done: 1, Cached: 1, Failed: 1}
	if *e.Tally != want || tallyOf(e.Records()) != want || e.EndDisposition != "cancelled" {
		t.Fatalf("tally %+v, records %+v, disposition %q; want %+v", *e.Tally, e.Records(), e.EndDisposition, want)
	}
	eager, disposition := parseEager(journalBytes(t, s, m.ID))
	if !reflect.DeepEqual(e.Records(), eager) || disposition != e.EndDisposition {
		t.Fatalf("records %+v, decoding at scan time gives %+v (%q)", e.Records(), eager, disposition)
	}
}

// TestJournalWithoutFittingTallyScansRecords: a journal whose last line
// is not an end line with a tally that fits its header — no tally (a
// journal written before it), a count below zero, more records than
// scenarios, or an end line followed by another line — has its records
// decoded by the scan.
func TestJournalWithoutFittingTallyScansRecords(t *testing.T) {
	hdr := `{"type":"sweep","sweep":{"id":"sw-1","spec_hash":"aaaa1111","scenario_hashes":["bbbb2222","cccc3333"],"names":["a","b"],"created_unix_nano":1}}` + "\n" +
		`{"type":"payload","payload":{"spec":{},"scenarios":[]}}` + "\n" +
		`{"type":"scenario","scenario":{"index":0,"hash":"bbbb2222","state":"done"}}` + "\n"
	for name, tail := range map[string]string{
		"pre_tally":     `{"type":"end","disposition":"complete"}` + "\n",
		"negative":      `{"type":"end","disposition":"complete","tally":{"done":2,"failed":-1}}` + "\n",
		"over_hashes":   `{"type":"end","disposition":"complete","tally":{"done":2,"cached":1}}` + "\n",
		"end_not_last":  `{"type":"end","disposition":"complete","tally":{"done":1}}` + "\n" + `{"type":"scenario","scenario":{"index":1,"hash":"cccc3333","state":"done"}}` + "\n",
		"huge_overflow": `{"type":"end","disposition":"complete","tally":{"done":4611686018427387904,"cached":4611686018427387904,"failed":4611686018427387904}}` + "\n",
	} {
		e, err := parseJournal([]byte(hdr + tail))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if e.Tally != nil || len(e.records) != 1 || e.EndDisposition != "complete" {
			t.Fatalf("%s: tally %+v, %d records decoded by the scan, disposition %q", name, e.Tally, len(e.records), e.EndDisposition)
		}
	}
}
