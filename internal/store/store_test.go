package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"exadigit/internal/core"
	"exadigit/internal/raps"
	"exadigit/internal/telemetry"
)

const (
	specA = "aaaa1111"
	scenA = "bbbb2222"
	scenB = "cccc3333"
)

func sampleResult() *core.Result {
	return &core.Result{
		Scenario: core.Scenario{Name: "chaos-day"},
		Report: &raps.Report{
			JobsCompleted: 42,
			AvgPowerMW:    21.5,
			EnergyMWh:     510.25,
			AvgPUE:        1.032,
			Partitions: []raps.PartitionReport{
				{Name: "gpu", JobsCompleted: 40, AvgPowerMW: 20.0},
			},
		},
		History: []raps.Sample{
			{TimeSec: 15, PowerW: 2.1e7, PUE: 1.05, JobsRunning: 3, PartPowerW: []float64{2.1e7}},
			{TimeSec: 30, PowerW: 2.2e7, PUE: 1.04, JobsRunning: 4, PartPowerW: []float64{2.2e7}},
		},
		Dataset: &telemetry.Dataset{
			Epoch:       "2024-01-18",
			SeriesDtSec: 15,
			Jobs: []telemetry.JobRecord{
				{JobID: 7, NodeCount: 128, CPUPowerW: []float64{100, 110}},
			},
			Series: []telemetry.SeriesPoint{
				{TimeSec: 15, MeasuredPowerW: 2.1e7},
			},
		},
		WallSec: 0.125,
	}
}

// TestPutGetRoundTrip pins the durable round-trip: everything a cached
// result serves (report, history, telemetry export, wall time, name)
// survives Put → Get bit-for-bit.
func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := sampleResult()
	if err := s.Put(specA, scenA, want); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(specA, scenA)
	if err != nil {
		t.Fatal(err)
	}
	if got.Scenario.Name != want.Scenario.Name || got.WallSec != want.WallSec {
		t.Fatalf("scalar fields differ: %+v", got)
	}
	if !reflect.DeepEqual(got.Report, want.Report) {
		t.Fatalf("report round-trip mismatch:\n got %+v\nwant %+v", got.Report, want.Report)
	}
	if !reflect.DeepEqual(got.History, want.History) {
		t.Fatalf("history round-trip mismatch")
	}
	if !reflect.DeepEqual(got.Dataset, want.Dataset) {
		t.Fatalf("dataset round-trip mismatch:\n got %+v\nwant %+v", got.Dataset, want.Dataset)
	}
	m := s.Stats()
	if m.Hits != 1 || m.Puts != 1 || m.Entries != 1 || m.Bytes <= 0 {
		t.Fatalf("unexpected metrics after round-trip: %+v", m)
	}
}

// TestGetMissAndLeanResult: a missing key is ErrNotFound; a lean result
// (report only, the HTTP sweep default) round-trips with nil history and
// dataset.
func TestGetMissAndLeanResult(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(specA, scenA); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	lean := &core.Result{Report: &raps.Report{EnergyMWh: 1}, WallSec: 0.01}
	if err := s.Put(specA, scenA, lean); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(specA, scenA)
	if err != nil {
		t.Fatal(err)
	}
	if got.History != nil || got.Dataset != nil {
		t.Fatalf("lean result grew data on round-trip: %+v", got)
	}
	if got.Report.EnergyMWh != 1 {
		t.Fatalf("lean report mismatch: %+v", got.Report)
	}
}

// TestRestartRebuildsIndex: a fresh Open over an existing directory
// serves every complete entry written before the "restart".
func TestRestartRebuildsIndex(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put(specA, scenA, sampleResult()); err != nil {
		t.Fatal(err)
	}
	if err := s1.Put(specA, scenB, sampleResult()); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 2 {
		t.Fatalf("rebuilt index has %d entries, want 2", s2.Len())
	}
	if _, err := s2.Get(specA, scenA); err != nil {
		t.Fatalf("restarted store lost %s/%s: %v", specA, scenA, err)
	}
	if _, err := s2.Get(specA, scenB); err != nil {
		t.Fatalf("restarted store lost %s/%s: %v", specA, scenB, err)
	}
}

// TestTruncatedEntryQuarantinedOnOpen: an entry missing its end trailer
// (kill mid-write, filesystem truncation) is quarantined at startup —
// not indexed, not served, renamed aside for forensics.
func TestTruncatedEntryQuarantinedOnOpen(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put(specA, scenA, sampleResult()); err != nil {
		t.Fatal(err)
	}
	if err := s1.Put(specA, scenB, sampleResult()); err != nil {
		t.Fatal(err)
	}
	path := s1.EntryPath(specA, scenA)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()/2); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 {
		t.Fatalf("index has %d entries after quarantine, want 1", s2.Len())
	}
	if _, err := s2.Get(specA, scenA); !errors.Is(err, ErrNotFound) {
		t.Fatalf("truncated entry served: %v", err)
	}
	if _, err := s2.Get(specA, scenB); err != nil {
		t.Fatalf("intact sibling entry lost: %v", err)
	}
	if m := s2.Stats(); m.CorruptQuarantined != 1 {
		t.Fatalf("quarantine not counted: %+v", m)
	}
	if _, err := os.Stat(path + quarantineSuffix); err != nil {
		t.Fatalf("quarantined file not preserved: %v", err)
	}
}

// TestCorruptEntryQuarantinedOnGet: corruption that appears after the
// index was built (the trailer intact but the body mangled) is caught at
// read time, quarantined, and reported as ErrCorrupt; a re-Put of the
// same key heals the store.
func TestCorruptEntryQuarantinedOnGet(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(specA, scenA, sampleResult()); err != nil {
		t.Fatal(err)
	}
	path := s.EntryPath(specA, scenA)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Mangle the header line but keep the end trailer, so only a full
	// read can notice.
	mangled := strings.Replace(string(data), `"type":"result"`, `"type":"garbage"`, 1)
	if err := os.WriteFile(path, []byte(mangled), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(specA, scenA); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
	if s.Len() != 0 {
		t.Fatalf("corrupt entry still indexed")
	}
	// Second Get is a plain miss (no double quarantine).
	if _, err := s.Get(specA, scenA); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound after quarantine, got %v", err)
	}
	if err := s.Put(specA, scenA, sampleResult()); err != nil {
		t.Fatalf("re-put after quarantine: %v", err)
	}
	if _, err := s.Get(specA, scenA); err != nil {
		t.Fatalf("healed entry not served: %v", err)
	}
}

// TestInvalidKeysRejected: keys that are not lowercase-hex hashes never
// touch the filesystem (path traversal is structurally impossible).
func TestInvalidKeysRejected(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"", "../etc", "ABC", "a/b", ".hidden"} {
		if err := s.Put(k, scenA, sampleResult()); err == nil {
			t.Errorf("Put accepted invalid spec key %q", k)
		}
		if err := s.Put(specA, k, sampleResult()); err == nil {
			t.Errorf("Put accepted invalid scenario key %q", k)
		}
	}
	if m := s.Stats(); m.PutErrors == 0 {
		t.Error("put errors not counted")
	}
}

// TestOverwriteKeepsAccounting: re-putting a key replaces the entry and
// keeps byte accounting consistent.
func TestOverwriteKeepsAccounting(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(specA, scenA, sampleResult()); err != nil {
		t.Fatal(err)
	}
	b1 := s.Stats().Bytes
	lean := &core.Result{Report: &raps.Report{EnergyMWh: 2}}
	if err := s.Put(specA, scenA, lean); err != nil {
		t.Fatal(err)
	}
	m := s.Stats()
	if m.Entries != 1 {
		t.Fatalf("overwrite duplicated the entry: %+v", m)
	}
	if m.Bytes >= b1 {
		t.Fatalf("byte accounting did not shrink with the smaller entry: %d → %d", b1, m.Bytes)
	}
	got, err := s.Get(specA, scenA)
	if err != nil {
		t.Fatal(err)
	}
	if got.Report.EnergyMWh != 2 {
		t.Fatalf("overwrite served stale content: %+v", got.Report)
	}
	// No stray temp files left behind.
	entries, err := os.ReadDir(filepath.Join(s.Dir(), specA))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("spec dir has %d files, want 1", len(entries))
	}
}

// TestQuarantineAgedOutAtOpen: quarantined entries older than the
// configured TTL are deleted by the startup sweep (and counted);
// younger ones are kept for forensics, and TTL 0 keeps everything.
func TestQuarantineAgedOutAtOpen(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put(specA, scenA, sampleResult()); err != nil {
		t.Fatal(err)
	}
	if err := s1.Put(specA, scenB, sampleResult()); err != nil {
		t.Fatal(err)
	}
	oldQ := s1.EntryPath(specA, scenA) + quarantineSuffix
	newQ := s1.EntryPath(specA, scenB) + quarantineSuffix
	if err := os.Rename(s1.EntryPath(specA, scenA), oldQ); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(s1.EntryPath(specA, scenB), newQ); err != nil {
		t.Fatal(err)
	}
	stale := time.Now().Add(-48 * time.Hour)
	if err := os.Chtimes(oldQ, stale, stale); err != nil {
		t.Fatal(err)
	}

	// TTL 0: nothing is touched.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m := s2.Stats(); m.QuarantinePurged != 0 {
		t.Fatalf("TTL 0 purged %d files", m.QuarantinePurged)
	}
	if _, err := os.Stat(oldQ); err != nil {
		t.Fatalf("TTL 0 removed a quarantine file: %v", err)
	}

	// 24h TTL: only the 48h-old file goes.
	s3, err := OpenOptions(dir, Options{QuarantineTTL: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if m := s3.Stats(); m.QuarantinePurged != 1 {
		t.Fatalf("purged = %d, want 1 (%+v)", m.QuarantinePurged, m)
	}
	if _, err := os.Stat(oldQ); !os.IsNotExist(err) {
		t.Fatal("aged quarantine file survived")
	}
	if _, err := os.Stat(newQ); err != nil {
		t.Fatalf("young quarantine file deleted: %v", err)
	}
}

// TestGetSeesSiblingWrites pins the multi-node store semantic: a key
// persisted by ANOTHER Store instance on the same directory (another
// node of a distributed sweep) is served by Get even though it is
// absent from this instance's startup index. The cross-node lease
// protocol depends on it — a waiter must see the holder's Put without
// reopening the store.
func TestGetSeesSiblingWrites(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	if err := a.Put(specA, scenA, sampleResult()); err != nil {
		t.Fatal(err)
	}
	got, err := b.Get(specA, scenA)
	if err != nil {
		t.Fatalf("sibling write invisible: %v", err)
	}
	if got.Report == nil || got.Report.JobsCompleted != 42 {
		t.Fatalf("sibling entry decoded wrong: %+v", got.Report)
	}
	m := b.Stats()
	if m.Hits != 1 || m.Entries != 1 || m.Bytes <= 0 {
		t.Fatalf("adopted entry not accounted: %+v", m)
	}
	// A second Get serves from the now-updated index.
	if _, err := b.Get(specA, scenA); err != nil {
		t.Fatal(err)
	}
	// Keys nobody wrote are still plain misses.
	if _, err := b.Get(specA, scenB); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

// TestOpenMatchesSequentialCheck: Open, which checks trailers on
// parallel readers, indexes, sizes, quarantines and counts the entries
// exactly as checking them one by one does, and still ages out an old
// quarantine file beside them. The 3×GOMAXPROCS+1 entries span two spec
// directories; every third lacks its trailer.
func TestOpenMatchesSequentialCheck(t *testing.T) {
	dir := t.TempDir()
	n := 3*runtime.GOMAXPROCS(0) + 1
	var paths []string
	for i := 0; i < n; i++ {
		spec := []string{specA, "dddd4444"}[i%2]
		path := filepath.Join(dir, spec, fmt.Sprintf("%04x", i)+entrySuffix)
		body := `{"type":"result"}` + "\n" + strings.Repeat(`{"type":"sample"}`+"\n", i)
		if i%3 != 2 {
			body += string(endLine) + "\n"
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	aged := filepath.Join(dir, specA, "ffff"+entrySuffix+quarantineSuffix)
	if err := os.WriteFile(aged, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	stale := time.Now().Add(-48 * time.Hour)
	if err := os.Chtimes(aged, stale, stale); err != nil {
		t.Fatal(err)
	}

	want := map[string]int64{}
	var wantBytes int64
	var bad []string
	for _, p := range paths {
		size, ok := checkTrailer(p)
		if !ok {
			bad = append(bad, p)
			continue
		}
		rel, err := filepath.Rel(dir, p)
		if err != nil {
			t.Fatal(err)
		}
		want[strings.TrimSuffix(filepath.ToSlash(rel), entrySuffix)] = size
		wantBytes += size
	}
	if len(want) == 0 || len(bad) == 0 {
		t.Fatalf("fixture checks %d good and %d bad entries, want both", len(want), len(bad))
	}

	s, err := OpenOptions(dir, Options{QuarantineTTL: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.index, want) {
		t.Fatalf("index %v, want %v", s.index, want)
	}
	m := s.Stats()
	if m.Bytes != wantBytes || m.CorruptQuarantined != uint64(len(bad)) || m.QuarantinePurged != 1 {
		t.Fatalf("stats %+v, want %d bytes, %d quarantined, 1 purged", m, wantBytes, len(bad))
	}
	for _, p := range bad {
		if _, err := os.Stat(p + quarantineSuffix); err != nil {
			t.Fatalf("entry without trailer not quarantined: %v", err)
		}
	}
	if _, err := os.Stat(aged); !os.IsNotExist(err) {
		t.Fatal("aged quarantine file survived")
	}
}
