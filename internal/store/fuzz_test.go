package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzReadJournal fuzzes the journal scanner on arbitrary bytes, with
// the fuzzed file scanned between two valid journals so the scan runs
// on several readers: the scan never panics; a journal whose header
// does not parse is quarantined and left out of the scan; every record
// the scan keeps has an index within the header's scenarios, the
// header's hash for that index, and no other record for it; decoding
// the payload of an accepted journal never panics; and the two valid
// journals always come back whole, unquarantined.
//
// It also holds the tail read to the full scan it stands in for
// (parseEager): Records returns what that scan keeps, and a tallied
// journal reads finished with that scan's disposition — unless a
// middle line does not decode or is an end line of its own (a file
// edited by hand), where it still reads finished, keeping the records
// before that line. When a tally matches the records it counts, the
// summary it gives (what it leaves out was cancelled) is the records'
// count of every scenario by state. Reopened and ended, as a resumed
// sweep's journal is, an accepted journal whose payload decodes (one
// recovery would resume) reads complete with the records the full scan
// kept and a tally that counts them. The seed corpus lives under
// testdata/fuzz.
func FuzzReadJournal(f *testing.F) {
	var valid [2][]byte
	for i := range valid {
		m := sampleManifest(fmt.Sprintf("sw-f0-%d", 2*i))
		m.SpecJSON, m.ScenariosJSON = nil, nil
		b, err := json.Marshal(journalLine{Type: "sweep", Sweep: m})
		if err != nil {
			f.Fatal(err)
		}
		valid[i] = append(b, "\n"+
			`{"type":"payload","payload":{"spec":{},"scenarios":[]}}`+"\n"+
			`{"type":"scenario","scenario":{"index":1,"hash":"`+scenB+`","state":"done"}}`+"\n"+
			`{"type":"end","disposition":"complete"}`+"\n"...)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join(s.Dir(), journalDirName)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "sw-f0-1"+journalSuffix)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for i, b := range valid {
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("sw-f0-%d", 2*i)+journalSuffix), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		scanned, err := s.ScanJournals()
		if err != nil {
			t.Fatal(err)
		}
		var entries []JournalEntry
		for _, e := range scanned {
			if e.Path == path {
				entries = append(entries, e)
				continue
			}
			if len(e.Records()) != 1 || e.EndDisposition != "complete" || e.Tally != nil {
				t.Fatalf("valid journal %s read as %+v", e.Path, e)
			}
		}
		if len(scanned)-len(entries) != len(valid) {
			t.Fatalf("scan returned %d of the %d valid journals", len(scanned)-len(entries), len(valid))
		}
		if _, perr := parseJournal(data); perr != nil {
			if len(entries) != 0 {
				t.Fatalf("unreadable header (%v) surfaced in the scan", perr)
			}
			if _, err := os.Stat(path + quarantineSuffix); err != nil {
				t.Fatalf("unreadable header (%v) not quarantined: %v", perr, err)
			}
			if c := s.Stats().CorruptQuarantined; c != 1 {
				t.Fatalf("CorruptQuarantined = %d, want 1", c)
			}
			return
		}
		if len(entries) != 1 {
			t.Fatalf("readable journal: scan returned %d entries", len(entries))
		}
		if c := s.Stats().CorruptQuarantined; c != 0 {
			t.Fatalf("CorruptQuarantined = %d with every header readable", c)
		}
		e := entries[0]
		hashes := e.Manifest.ScenarioHashes
		recs := e.Records()
		seen := make(map[int]bool)
		for _, rec := range recs {
			if rec.Index < 0 || rec.Index >= len(hashes) {
				t.Fatalf("record index %d outside %d scenarios", rec.Index, len(hashes))
			}
			if rec.Hash != hashes[rec.Index] {
				t.Fatalf("record %d hash %q, manifest has %q", rec.Index, rec.Hash, hashes[rec.Index])
			}
			if seen[rec.Index] {
				t.Fatalf("two records for index %d", rec.Index)
			}
			seen[rec.Index] = true
		}
		_, _, payloadErr := e.Payload()

		eagerRecs, eagerDisposition := parseEager(data)
		if !reflect.DeepEqual(recs, eagerRecs) {
			t.Fatalf("records %+v, the full scan keeps %+v", recs, eagerRecs)
		}
		if e.Tally == nil && e.EndDisposition != eagerDisposition {
			t.Fatalf("disposition %q, the full scan reads %q", e.EndDisposition, eagerDisposition)
		}
		if e.Tally != nil {
			checkTallied(t, &e, eagerDisposition)
		}
		if payloadErr == nil {
			checkResumed(t, s, path, eagerRecs)
		}
	})
}

// checkTallied holds a tallied journal's tail read to the full scan's
// disposition, and the summary its tally gives to the records' count.
func checkTallied(t *testing.T, e *JournalEntry, eagerDisposition string) {
	t.Helper()
	if e.EndDisposition == "" {
		t.Fatal("tallied journal read incomplete")
	}
	if e.EndDisposition != eagerDisposition && !brokenMiddle(e.raw) {
		t.Fatalf("disposition %q, the full scan reads %q", e.EndDisposition, eagerDisposition)
	}
	recs := e.Records()
	if tl := *e.Tally; tallyOf(recs) == tl && tl.Done+tl.Cached+tl.Failed == len(recs) {
		n := len(e.Manifest.ScenarioHashes)
		summary := map[string]int{"done": tl.Done, "cached": tl.Cached, "failed": tl.Failed, "cancelled": n - tl.Done - tl.Cached - tl.Failed}
		materialized := map[string]int{"cancelled": n - len(recs)}
		for _, rec := range recs {
			materialized[rec.State]++
		}
		for state, c := range materialized {
			if c != summary[state] {
				t.Fatalf("summary %v, the records count %v", summary, materialized)
			}
		}
	}
}

// checkResumed reopens the journal at path, as a resumed sweep does,
// records scenario 0 failed, if there is one, and ends it: it then
// reads complete, with the records the full scan kept before plus the
// new one, and a tally that counts them.
func checkResumed(t *testing.T, s *Store, path string, kept []ScenarioRecord) {
	t.Helper()
	j, err := s.OpenJournal("sw-f0-1")
	if err != nil {
		t.Fatalf("reopening an accepted journal: %v", err)
	}
	want := append([]ScenarioRecord(nil), kept...)
	if hashes := j.kept.hashes; len(hashes) > 0 {
		rec := ScenarioRecord{Index: 0, Hash: hashes[0], State: "failed", Error: "resumed"}
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
		i := 0
		for i < len(want) && want[i].Index != 0 {
			i++
		}
		if i == len(want) {
			want = append(want, rec)
		}
		want[i] = rec
	}
	if err := j.End("complete"); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	e, err := parseJournal(b)
	if err != nil {
		t.Fatalf("resumed journal: %v", err)
	}
	if e.EndDisposition != "complete" || e.Tally == nil {
		t.Fatalf("resumed journal read %q with tally %+v", e.EndDisposition, e.Tally)
	}
	if got := e.Records(); !reflect.DeepEqual(got, want) || tallyOf(got) != *e.Tally {
		t.Fatalf("resumed journal: records %+v, tally %+v; before the resume the scan kept %+v", got, *e.Tally, want)
	}
}

// parseEager reads an accepted journal's records and disposition with
// the full scan, the reference the tail read is held to: every line
// after the header and the payload decoded, none read from the tail.
func parseEager(b []byte) ([]ScenarioRecord, string) {
	line, rest, _ := bytes.Cut(b, newline)
	var first journalLine
	_ = json.Unmarshal(line, &first)
	m := first.Sweep
	if len(m.SpecJSON) == 0 && len(m.ScenariosJSON) == 0 {
		_, rest, _ = bytes.Cut(rest, newline)
	}
	recs, disposition, _ := scanRecords(rest, m.ScenarioHashes)
	return recs, disposition
}

// brokenMiddle reports whether the record lines hold one the record
// loop stops at: a line that does not decode, or an end line.
func brokenMiddle(raw []byte) bool {
	for len(raw) > 0 {
		var line []byte
		line, raw, _ = bytes.Cut(raw, newline)
		var l journalLine
		if json.Unmarshal(line, &l) != nil || l.Type == "end" {
			return true
		}
	}
	return false
}

// FuzzDecodeLine holds the journal's line decoder to json.Unmarshal on
// arbitrary bytes: when the fast path takes a line, json.Unmarshal
// accepts it too and decodes it to the same value; and decodeLine, fast
// path or not, returns what json.Unmarshal returns. The seeds are a
// header, a record and an end line as the journal writes them, plain
// and otherwise, and lines at the edges of the fast path's layout.
func FuzzDecodeLine(f *testing.F) {
	m := sampleManifest("sw-f00d")
	m.SpecJSON, m.ScenariosJSON = nil, nil
	m.Names = []string{"a", "b"}
	for _, l := range []journalLine{
		{Type: "sweep", Sweep: m},
		{Type: "sweep", Sweep: sampleManifest("sw-f00d")},
		{Type: "scenario", Scenario: &ScenarioRecord{Index: 1, Hash: scenB, State: "failed", Error: "boom", Attempts: 3, WallSec: 1.5e-7, CacheHit: true}},
		{Type: "scenario", Scenario: &ScenarioRecord{Index: 0, Hash: scenA, State: "done", Error: "<\"é\">"}},
		{Type: "end", Disposition: "complete", Tally: &Tally{Done: 5, Cached: 2, Failed: 1}},
		{Type: "end", Disposition: "cancelled"},
	} {
		b, err := json.Marshal(l)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, line := range []string{
		`{"type":"scenario","scenario":{"index":01,"hash":"h","state":"done"}}`,
		`{"type":"scenario","scenario":{"index":-0,"attempts":99999999999999999999}}`,
		`{"type":"scenario","scenario":{"index":1.0}}`,
		`{"type":"scenario","scenario":{"index":1,"wall_sec":1e400}}`,
		`{"type":"scenario","scenario":{"index":1,"wall_sec":1.}}`,
		`{"type":"scenario","scenario":{"wall_sec":-0.5E+3,"cache_hit":false}}`,
		`{"type":"scenario","scenario":{"index":1,"hash":"h","cache_hit":true},"scenario":null}`,
		`{"type":"scenario","scenario":{"hash":"h","index":1}}`,
		`{"type":"scenario","scenario":{"Index":1,"HASH":"h"}}`,
		`{"type":"scenario","scenario":{"index":1,"retries":2}}`,
		`{"type":"scenario", "scenario":{"index":1}}`,
		`{"type":"end","tally":null}`,
		`{"type":"end","disposition":"complete","tally":{"done":1,"cached":0,"failed":0}} `,
		`{"type":"end","disposition":"complete"}x`,
		`{"type":"end","disposition":"\u0063omplete"}`,
		`{"type":"sweep","sweep":{"id":"sw-1","spec_hash":"s","scenario_hashes":null}}`,
		`{"type":"sweep","sweep":{"id":"sw-1","scenario_hashes":[],"names":["","a"]}}`,
		`{"type":"sweep","sweep":{"id":"sw-1","scenario_hashes":["a",]}}`,
		`{"type":"sweep","sweep":{"id":"sw-1","scenario_hashes":["a"],"spec":{},"scenarios":[]}}`,
		`{"type":"sweep","sweep":{"id":"sw-1","created_unix_nano":-9223372036854775808}}`,
		`{"type":"payload","payload":{"spec":{},"scenarios":[]}}`,
	} {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var fast, ref, got journalLine
		refErr := json.Unmarshal(data, &ref)
		if fastLine(data, &fast) {
			if refErr != nil {
				t.Fatalf("fast path took %q, json.Unmarshal refuses it: %v", data, refErr)
			}
			if !reflect.DeepEqual(fast, ref) {
				t.Fatalf("fast path decoded %q to %+v, json.Unmarshal to %+v", data, fast, ref)
			}
		}
		if err := decodeLine(data, &got); (err == nil) != (refErr == nil) || !reflect.DeepEqual(got, ref) {
			t.Fatalf("decodeLine(%q) = %+v, %v; json.Unmarshal gives %+v, %v", data, got, err, ref, refErr)
		}
	})
}

// The key FuzzReadEntry asks the reader for; the seed corpus's entries
// are keyed by it, or deliberately not.
const (
	fuzzSpecHash = "aaaa1111"
	fuzzScenHash = "bbbb2222"
)

// FuzzReadEntry fuzzes the result-entry reader on arbitrary bytes: it
// never panics, and an entry it accepts has the result header, keyed
// as requested, as its first line and the end trailer as its last. The
// seed corpus lives under testdata/fuzz.
func FuzzReadEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := decodeEntry(bytes.NewReader(data), fuzzSpecHash, fuzzScenHash)
		if err != nil {
			return
		}
		if res == nil {
			t.Fatal("accepted entry decoded to a nil result")
		}
		var lines []json.RawMessage
		dec := json.NewDecoder(bytes.NewReader(data))
		for {
			var raw json.RawMessage
			if err := dec.Decode(&raw); err == io.EOF {
				break
			} else if err != nil {
				t.Fatalf("accepted entry does not split into JSON lines: %v", err)
			}
			lines = append(lines, raw)
		}
		if len(lines) < 2 {
			t.Fatalf("accepted entry has %d lines", len(lines))
		}
		var head resultLine
		if err := json.Unmarshal(lines[0], &head); err != nil || head.Type != "result" {
			t.Fatalf("accepted entry's first line is not the result header: %s", lines[0])
		}
		if head.SpecHash != fuzzSpecHash || head.ScenarioHash != fuzzScenHash {
			t.Fatalf("accepted entry keyed %s/%s, asked for %s/%s",
				head.SpecHash, head.ScenarioHash, fuzzSpecHash, fuzzScenHash)
		}
		var tail struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(lines[len(lines)-1], &tail); err != nil || tail.Type != "end" {
			t.Fatalf("accepted entry's last line is not the end trailer: %s", lines[len(lines)-1])
		}
	})
}

// FuzzReadLease fuzzes the lease-record parse on arbitrary bytes: it
// never panics, and a record it accepts names a non-empty owner. The
// seed corpus lives under testdata/fuzz.
func FuzzReadLease(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := parseLease(data)
		if err == nil && rec.Owner == "" {
			t.Fatalf("accepted lease %q has no owner", data)
		}
	})
}
