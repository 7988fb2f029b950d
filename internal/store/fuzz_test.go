package store

import (
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
