package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadJournal fuzzes the journal scanner on arbitrary bytes, with
// the fuzzed file scanned between two valid journals so the scan runs
// on several readers: the scan never panics; a journal whose header
// does not parse is quarantined and left out of the scan; every record
// the scan keeps has an index within the header's scenarios, the
// header's hash for that index, and no other record for it; decoding
// the payload of an accepted journal never panics; and the two valid
// journals always come back whole, unquarantined. The seed corpus lives
// under testdata/fuzz.
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
			if len(e.Records) != 1 || e.EndDisposition != "complete" {
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
		seen := make(map[int]bool)
		for _, rec := range e.Records {
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
		_, _, _ = e.Payload()
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
