package store

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadJournal fuzzes the journal scanner on arbitrary bytes: the
// scan never panics; a journal whose header does not parse is
// quarantined and left out of the scan; every record the scan keeps has
// an index within the header's scenarios, the header's hash for that
// index, and no other record for it; and decoding the payload of an
// accepted journal never panics. The seed corpus lives under
// testdata/fuzz.
func FuzzReadJournal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join(s.Dir(), journalDirName)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "sw-f0-0"+journalSuffix)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		entries, err := s.ScanJournals()
		if err != nil {
			t.Fatal(err)
		}
		if _, perr := parseJournal(data); perr != nil {
			if len(entries) != 0 {
				t.Fatalf("unreadable header (%v) surfaced in the scan", perr)
			}
			if _, err := os.Stat(path + quarantineSuffix); err != nil {
				t.Fatalf("unreadable header (%v) not quarantined: %v", perr, err)
			}
			return
		}
		if len(entries) != 1 {
			t.Fatalf("readable journal: scan returned %d entries", len(entries))
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
