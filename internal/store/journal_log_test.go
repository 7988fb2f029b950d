package store

// Tests for the sweep log: group commit, a torn last line cut at Open,
// a failed write degrading journaling, tombstones and the rewrite rule,
// two Stores on one directory, opening a directory without a log, the
// move of an earlier build's per-file journals, and the file-backed
// reopen/append/rewrite check over FuzzReadJournal's seeds.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// forceRewrite rewrites s's log now, as a batch that left it due would
// have had it rewritten, once no batch or rewrite runs.
func forceRewrite(t *testing.T, s *Store) {
	t.Helper()
	waitIdle(s)
	if _, err := s.log.rewrite(); err != nil {
		t.Fatal(err)
	}
}

// waitIdle waits until no batch of s's log is being written and no
// rewrite runs.
func waitIdle(s *Store) {
	s.log.mu.Lock()
	s.log.idle()
	s.log.mu.Unlock()
}

// TestLogGroupCommit: eight CreateJournal calls that queue while a
// batch waits for the log's lock go out in fewer than eight syncs —
// the blocked batch, then one for the seven queued behind it — and
// every journal reads back after a reopen.
func TestLogGroupCommit(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.CreateJournal(sampleManifest("sw-0"))
	if err != nil {
		t.Fatal(err)
	}
	first.Detach()
	// Hold the log's lock from outside the Store, as another process
	// writing a batch would, so the calls below queue behind it.
	holder, err := os.Open(s.log.path)
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	if err := flock(holder, syscall.LOCK_EX); err != nil {
		t.Fatal(err)
	}
	before := s.Stats().JournalSyncs
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.CreateJournal(sampleManifest(fmt.Sprintf("sw-%x", i+1)))
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.log.mu.Lock()
		queued := len(s.log.open.items)
		s.log.mu.Unlock()
		if queued == n-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d creates queued behind the held lock, want %d", queued, n-1)
		}
		time.Sleep(time.Millisecond)
	}
	if err := flock(holder, syscall.LOCK_UN); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
	}
	if syncs := s.Stats().JournalSyncs - before; syncs >= n || syncs != 2 {
		t.Fatalf("%d concurrent creates took %d syncs, want 2", n, syncs)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := s2.ScanJournals()
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, e := range entries {
		ids = append(ids, e.Manifest.ID)
	}
	slices.Sort(ids)
	if want := []string{"sw-0", "sw-1", "sw-2", "sw-3", "sw-4", "sw-5", "sw-6", "sw-7", "sw-8"}; !slices.Equal(ids, want) {
		t.Fatalf("reopened log holds %v, want %v", ids, want)
	}
}

// TestLogTornLastLineCutAtOpen: a torn last line — a write a crash cut
// short — is cut off at Open, and a record appended after the restart
// is read at the next one.
func TestLogTornLastLineCutAtOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.CreateJournal(sampleManifest("sw-7042-0004"))
	if err != nil {
		t.Fatal(err)
	}
	j.Detach()
	whole := logBytes(t, s)
	appendLog(t, s, `sw-7042-0004 {"type":"scenario","scenario":{"index":0,"hash":"`+scenA+`","state":"done"}}`)
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if b := logBytes(t, s2); string(b) != string(whole) {
		t.Fatalf("Open left\n%s\nwant the log before the torn line\n%s", b, whole)
	}
	j2, err := s2.OpenJournal("sw-7042-0004")
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Append(ScenarioRecord{Index: 1, Hash: scenB, State: "done"}); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if e := scanOne(t, s3); len(e.Records()) != 1 || e.Records()[0].Index != 1 || e.EndDisposition != "" {
		t.Fatalf("after the restart: disposition %q records %+v, want index 1's", e.EndDisposition, e.Records())
	}
}

// TestLogFailedWriteDegrades: a batch that cannot be written fails the
// calls in it — counted in journal_errors, the journal degraded to a
// no-op — leaves nothing of itself in the log, and later calls write
// again once the log can be.
func TestLogFailedWriteDegrades(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.CreateJournal(sampleManifest("sw-e0"))
	if err != nil {
		t.Fatal(err)
	}
	before := logBytes(t, s)
	ro, err := os.Open(s.log.path) // a descriptor no write goes through
	if err != nil {
		t.Fatal(err)
	}
	s.log.f = ro
	if err := j.Append(ScenarioRecord{Index: 0, Hash: scenA, State: "done"}); err == nil {
		t.Fatal("append through a read-only descriptor succeeded")
	}
	if err := j.Append(ScenarioRecord{Index: 1, Hash: scenB, State: "done"}); err == nil || j.Err() == nil {
		t.Fatalf("degraded journal: append %v, Err %v; want the sticky error", err, j.Err())
	}
	if _, err := s.CreateJournal(sampleManifest("sw-e1")); err == nil {
		t.Fatal("create through a read-only descriptor succeeded")
	}
	if m := s.Stats(); m.JournalErrors != 2 || m.JournalAppends != 0 || m.JournalCreates != 1 {
		t.Fatalf("metrics: %d errors, %d appends, %d creates; want 2, 0, 1", m.JournalErrors, m.JournalAppends, m.JournalCreates)
	}
	if b := logBytes(t, s); string(b) != string(before) {
		t.Fatalf("failed writes left bytes in the log:\n%s", b)
	}
	_ = ro.Close()
	s.log.f = nil
	if _, err := s.CreateJournal(sampleManifest("sw-e2")); err != nil {
		t.Fatal(err)
	}
	if n := s.JournalCount(); n != 2 {
		t.Fatalf("JournalCount = %d, want sw-e0 and sw-e2", n)
	}
}

// TestLogRewrite: tombstones make a sweep's lines dead; a rewrite keeps
// exactly the live lines, in log order, leaves no temp file, and the
// scan reads the same sweeps before and after it — one of them with a
// payload line longer than the index's buffer.
func TestLogRewrite(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var open []*SweepJournal
	for i := 0; i < 6; i++ {
		m := sampleManifest(fmt.Sprintf("sw-a%d", i))
		if i == 1 { // a payload line longer than the index's 64 KiB buffer
			m.ScenariosJSON = []byte(`[{"name":"` + strings.Repeat("y", 100<<10) + `"}]`)
		}
		j, err := s.CreateJournal(m)
		if err != nil {
			t.Fatal(err)
		}
		open = append(open, j)
	}
	for i, j := range open {
		if err := j.Append(ScenarioRecord{Index: i % 2, Hash: []string{scenA, scenB}[i%2], State: "done"}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i += 2 {
		if err := s.RemoveJournal(fmt.Sprintf("sw-a%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	want, err := s.ScanJournals()
	if err != nil {
		t.Fatal(err)
	}
	before := logBytes(t, s)
	groups, _ := splitLog(before)
	var kept []logLine
	for _, g := range groups {
		kept = append(kept, g.lines...)
	}
	slices.SortFunc(kept, func(a, b logLine) int { return a.start - b.start })
	var live []byte
	for _, ln := range kept {
		live = append(live, before[ln.start:ln.end]...)
	}
	forceRewrite(t, s)
	if b := logBytes(t, s); string(b) != string(live) || len(groups) != 3 {
		t.Fatalf("rewritten log\n%s\nwant the live lines of 3 sweeps in log order\n%s", b, live)
	}
	files, err := os.ReadDir(filepath.Join(dir, journalDirName))
	if err != nil || len(files) != 1 {
		t.Fatalf("sweeps directory after the rewrite: %v, %v", files, err)
	}
	got, err := s.ScanJournals()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after the rewrite the scan reads\n%+v\nwant\n%+v", got, want)
	}
	if err := open[1].End("complete"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.OpenJournal("sw-a1"); err != nil {
		t.Fatal(err)
	}
	if e := want[slices.IndexFunc(want, func(e JournalEntry) bool { return e.Manifest.ID == "sw-a1" })]; len(e.Records()) != 1 {
		t.Fatalf("sweep with the long payload: %+v", e.Records())
	}
	if e, err := Open(dir); err != nil {
		t.Fatal(err)
	} else if entries, _ := e.ScanJournals(); len(entries) != 3 {
		t.Fatalf("reopened log: %d sweeps, want 3", len(entries))
	}
}

// TestLogRewriteRule: pruning a sweep per create keeps the log within
// twice its live bytes plus the floor once the rewrites it sets off in
// the background are done (waitIdle), rewriting it when its dead bytes pass its
// live bytes plus the floor.
func TestLogRewriteRule(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := sampleManifest("")
	m.ScenariosJSON = []byte(`[{"name":"` + strings.Repeat("x", 4000) + `"}]`)
	const keep = 4
	for i := 0; i < 100; i++ {
		m.ID = fmt.Sprintf("sw-b%d", i)
		j, err := s.CreateJournal(m)
		if err != nil {
			t.Fatal(err)
		}
		j.Detach()
		if i >= keep {
			if err := s.RemoveJournal(fmt.Sprintf("sw-b%d", i-keep)); err != nil {
				t.Fatal(err)
			}
		}
		waitIdle(s)
		b := logBytes(t, s)
		groups, _ := splitLog(b)
		var live int64
		for _, g := range groups {
			live += g.size
		}
		if int64(len(b)) > 2*live+logRewriteFloor {
			t.Fatalf("after sweep %d: log of %d bytes holds %d live", i, len(b), live)
		}
	}
	if m := s.Stats(); m.JournalRewrites == 0 {
		t.Fatal("no rewrite in 96 prunes of 4 KB sweeps")
	}
	if n := s.JournalCount(); n != keep {
		t.Fatalf("JournalCount = %d, want %d", n, keep)
	}
}

// TestLogSharedDirectory: two Stores open on one directory append at
// once; every line of each reads back, and a rewrite by one keeps every
// line the other wrote, before, during and after it — the other reopens
// the replaced file. In the middle round, rewrites by the first Store
// run over and over while both append.
func TestLogSharedDirectory(t *testing.T) {
	dir := t.TempDir()
	stores := make([]*Store, 2)
	for i := range stores {
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = s
	}
	const per = 12
	run := func(round int) {
		var wg sync.WaitGroup
		for si, s := range stores {
			wg.Add(1)
			go func(si int, s *Store) {
				defer wg.Done()
				for k := 0; k < per; k++ {
					j, err := s.CreateJournal(sampleManifest(fmt.Sprintf("sw-%x-%x-%x", round, si, k)))
					if err != nil {
						t.Error(err)
						return
					}
					if err := j.Append(ScenarioRecord{Index: 0, Hash: scenA, State: "done"}); err != nil {
						t.Error(err)
					}
					if k%2 == 0 {
						err = j.End("complete")
					} else {
						err = s.RemoveJournal(fmt.Sprintf("sw-%x-%x-%x", round, si, k))
					}
					if err != nil {
						t.Error(err)
					}
				}
			}(si, s)
		}
		wg.Wait()
	}
	run(0)
	forceRewrite(t, stores[0])
	stop := make(chan struct{})
	rewrote := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				rewrote <- n
				return
			default:
			}
			if _, err := stores[0].log.rewrite(); err != nil {
				t.Error(err)
			}
			n++
		}
	}()
	run(1)
	close(stop)
	if n := <-rewrote; n == 0 {
		t.Fatal("no rewrite ran while the Stores appended")
	}
	forceRewrite(t, stores[1])
	run(2)
	entries, err := stores[0].ScanJournals()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3*2*per/2 {
		t.Fatalf("the shared log holds %d sweeps, want %d", len(entries), 3*2*per/2)
	}
	for _, e := range entries {
		if e.EndDisposition != "complete" || len(e.Records()) != 1 {
			t.Fatalf("sweep %s: disposition %q records %+v", e.Manifest.ID, e.EndDisposition, e.Records())
		}
	}
}

// TestOpenWithoutLogCreatesNothing: opening a directory that holds no
// log, scanning it and counting its journals creates no file.
func TestOpenWithoutLogCreatesNothing(t *testing.T) {
	for _, withSweepsDir := range []bool{false, true} {
		dir := t.TempDir()
		if withSweepsDir {
			if err := os.Mkdir(filepath.Join(dir, journalDirName), 0o755); err != nil {
				t.Fatal(err)
			}
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if entries, err := s.ScanJournals(); err != nil || entries != nil || s.JournalCount() != 0 {
			t.Fatalf("scan of a directory without a log: %v, %v", entries, err)
		}
		if _, err := os.Stat(s.log.path); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("log created: %v", err)
		}
	}
}

// TestOpenMovesPerFileJournals: at Open, the per-file journals an
// earlier build wrote — finished and tallied, pre-tally, incomplete,
// torn tail, fused, pre-split header, and one whose header does not
// decode — move into the log and are removed; the unreadable one is
// quarantined as before. Each sweep then reads as its file did, at this
// Open and the next, and a file left behind by a move a crash cut short
// is removed without moving twice.
func TestOpenMovesPerFileJournals(t *testing.T) {
	hdr := func(id string, extra string) string {
		return `{"type":"sweep","sweep":{"id":"` + id + `","spec_hash":"aaaa1111","scenario_hashes":["bbbb2222","cccc3333"]` + extra + `,"created_unix_nano":1}}` + "\n"
	}
	const payload = `{"type":"payload","payload":{"spec":{},"scenarios":[]}}` + "\n"
	rec := func(i int, state string) string {
		return fmt.Sprintf(`{"type":"scenario","scenario":{"index":%d,"hash":"%s","state":"%s"}}`, i, []string{scenA, scenB}[i], state) + "\n"
	}
	files := map[string]string{
		"sw-f1": hdr("sw-f1", `,"names":["a","b"]`) + payload + rec(0, "done") + rec(1, "failed") + `{"type":"end","disposition":"complete","tally":{"done":1,"cached":0,"failed":1}}` + "\n",
		"sw-f2": hdr("sw-f2", "") + payload + rec(1, "cached") + `{"type":"end","disposition":"cancelled"}` + "\n",
		"sw-f3": hdr("sw-f3", "") + payload + rec(0, "done"),
		"sw-f4": hdr("sw-f4", "") + payload + rec(0, "done") + `{"type":"scenario","scenario":{"ind`,
		"sw-f5": hdr("sw-f5", "") + payload + rec(0, "done") + `{"type":"scenario","scenario":{"ind` + rec(1, "done") + `{"type":"end","disposition":"complete"}` + "\n",
		"sw-f6": hdr("sw-f6", `,"spec":{"preset":"frontier"},"scenarios":[{"name":"a"},{"name":"b"}]`) + rec(1, "done") + `{"type":"end","disposition":"complete"}` + "\n",
		"sw-f7": hdr("sw-f7", "")[:40] + "\n" + payload,
		"sw-f8": hdr("sw-f8", "") + payload + rec(0, "done") + `{"type":"end","disposition":"complete","tally":{"done":1,"cached":0,"failed":0}}` + "\n" + rec(1, "done"),
	}
	dir := t.TempDir()
	want := make(map[string]*JournalEntry)
	for id, body := range files {
		writeJournalFile(t, dir, id, body)
		if e, err := parseJournal([]byte(body)); err == nil {
			want[id] = e
		}
	}
	if len(want) != len(files)-1 {
		t.Fatalf("%d of %d fixture journals parse, want all but one", len(want), len(files))
	}
	check := func(s *Store) {
		t.Helper()
		entries, err := s.ScanJournals()
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != len(want) {
			t.Fatalf("%d sweeps read, want %d", len(entries), len(want))
		}
		for i := range entries {
			e := &entries[i]
			sameJournal(t, e, want[e.Manifest.ID])
		}
		left, err := filepath.Glob(filepath.Join(dir, journalDirName, "*"+journalSuffix))
		if err != nil || len(left) != 0 {
			t.Fatalf("per-file journals left: %v, %v", left, err)
		}
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, journalDirName, "sw-f7"+journalSuffix+quarantineSuffix)); err != nil {
		t.Fatalf("unreadable journal not quarantined: %v", err)
	}
	if c := s.Stats().CorruptQuarantined; c != 1 {
		t.Fatalf("CorruptQuarantined = %d, want 1", c)
	}
	check(s)

	// A crash after the move and before the removal leaves a file the
	// log already holds: the next Open removes it and moves nothing.
	writeJournalFile(t, dir, "sw-f1", files["sw-f1"])
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	check(s2)
	if n := s2.JournalCount(); n != len(want) {
		t.Fatalf("JournalCount = %d after a second Open, want %d", n, len(want))
	}
}

// TestOpenDegradesOnUnmovableJournal: a per-file journal that cannot be
// read (here a name that resolves to a directory) does not fail Open.
// The error is kept (LogOpenErr) and counted in journal_errors, the
// other journals move, the unreadable one stays in place, and the log
// takes appends as before.
func TestOpenDegradesOnUnmovableJournal(t *testing.T) {
	dir := t.TempDir()
	m := sampleManifest("sw-f1")
	hdr, err := json.Marshal(journalLine{Type: "sweep", Sweep: &SweepManifest{ID: m.ID, SpecHash: m.SpecHash, ScenarioHashes: m.ScenarioHashes}})
	if err != nil {
		t.Fatal(err)
	}
	writeJournalFile(t, dir, "sw-f1", string(hdr)+"\n"+`{"type":"payload","payload":{"spec":{},"scenarios":[]}}`+"\n")
	bad := filepath.Join(dir, journalDirName, "sw-f2"+journalSuffix)
	if err := os.Symlink(t.TempDir(), bad); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open failed on an unreadable per-file journal: %v", err)
	}
	if s.LogOpenErr() == nil || s.Stats().JournalErrors != 1 {
		t.Fatalf("LogOpenErr %v, %d journal errors; want the read error, counted once", s.LogOpenErr(), s.Stats().JournalErrors)
	}
	if _, err := os.Lstat(bad); err != nil {
		t.Fatalf("unreadable journal not left in place: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, journalDirName, "sw-f1"+journalSuffix)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("readable journal not moved: %v", err)
	}
	if _, err := s.CreateJournal(sampleManifest("sw-f3")); err != nil {
		t.Fatal(err)
	}
	entries, err := s.ScanJournals()
	if err != nil || len(entries) != 2 {
		t.Fatalf("scan read %d sweeps (%v), want sw-f1 and sw-f3", len(entries), err)
	}
	if err := os.Remove(bad); err != nil {
		t.Fatal(err)
	}
	if s2, err := Open(dir); err != nil || s2.LogOpenErr() != nil || s2.Stats().JournalErrors != 0 {
		t.Fatalf("reopen: %v, %v", err, s2.LogOpenErr())
	}
}

// fuzzSeeds reads FuzzReadJournal's seed corpus under testdata/fuzz.
func fuzzSeeds(t *testing.T) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzReadJournal", "*"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("seed corpus: %v, %d files", err, len(paths))
	}
	seeds := make(map[string][]byte)
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(strings.TrimSpace(string(b)), "go test fuzz v1\n[]byte(")
		if !ok || !strings.HasSuffix(lit, ")") {
			t.Fatalf("seed %s: not a []byte corpus entry", p)
		}
		v, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			t.Fatalf("seed %s: %v", p, err)
		}
		seeds[filepath.Base(p)] = []byte(v)
	}
	return seeds
}

// TestLogSeedsReopenAppendRewrite is the file-backed half of
// FuzzReadJournal, over its seeds. Each corpus seed — a per-file
// journal — is moved into a store's log at Open next to a valid one;
// each log seed is the store's log. Every sweep the scan accepts whose
// payload decodes (one recovery would resume) is reopened, has
// scenario 0 recorded failed and is ended; the log is rewritten and the
// store reopened, and every resumed sweep then reads complete with the
// records the scan kept before plus the new one and a tally that counts
// them, while every other sweep reads as it did.
func TestLogSeedsReopenAppendRewrite(t *testing.T) {
	valid := hdrLine(t, "sw-c0-0") + `{"type":"payload","payload":{"spec":{},"scenarios":[]}}` + "\n" +
		`{"type":"scenario","scenario":{"index":1,"hash":"` + scenB + `","state":"done"}}` + "\n" +
		`{"type":"end","disposition":"complete"}` + "\n"
	seeds := fuzzSeeds(t)
	for i, b := range logSeeds(t) {
		seeds[fmt.Sprintf("log#%d", i)] = b
	}
	for name, data := range seeds {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if strings.HasPrefix(name, "log#") {
				if err := os.MkdirAll(filepath.Join(dir, journalDirName), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, journalDirName, logName), data, 0o644); err != nil {
					t.Fatal(err)
				}
			} else {
				writeJournalFile(t, dir, "sw-c0-0", valid)
				writeJournalFile(t, dir, "sw-c0-1", string(data))
			}
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			before, err := s.ScanJournals()
			if err != nil {
				t.Fatal(err)
			}
			groups, _ := splitLog(logBytes(t, s))
			resumed := make(map[string][]ScenarioRecord)
			for _, g := range groups {
				i := slices.IndexFunc(before, func(e JournalEntry) bool {
					return e.Manifest.ID == g.id || (g.id == "sw-c0-1" && e.Manifest.ID != "sw-c0-0")
				})
				if i < 0 {
					continue
				}
				e := &before[i]
				if _, _, err := e.Payload(); err != nil {
					continue
				}
				j, err := s.OpenJournal(g.id)
				if err != nil {
					t.Fatalf("reopening %s: %v", g.id, err)
				}
				want := append([]ScenarioRecord(nil), e.Records()...)
				if hashes := e.Manifest.ScenarioHashes; len(hashes) > 0 {
					rec := ScenarioRecord{Index: 0, Hash: hashes[0], State: "failed", Error: "resumed"}
					if err := j.Append(rec); err != nil {
						t.Fatal(err)
					}
					k := slices.IndexFunc(want, func(r ScenarioRecord) bool { return r.Index == 0 })
					if k < 0 {
						want = append(want, rec)
					} else {
						want[k] = rec
					}
				}
				if err := j.End("complete"); err != nil {
					t.Fatal(err)
				}
				resumed[e.Manifest.ID] = want
			}
			forceRewrite(t, s)
			s2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			after, err := s2.ScanJournals()
			if err != nil {
				t.Fatal(err)
			}
			if len(after) != len(before) {
				t.Fatalf("%d sweeps after the resume, %d before", len(after), len(before))
			}
			for i := range after {
				e := &after[i]
				want, ok := resumed[e.Manifest.ID]
				if !ok {
					k := slices.IndexFunc(before, func(b JournalEntry) bool { return b.Manifest.ID == e.Manifest.ID })
					sameJournal(t, e, &before[k])
					continue
				}
				if e.EndDisposition != "complete" || e.Tally == nil {
					t.Fatalf("resumed %s read %q with tally %+v", e.Manifest.ID, e.EndDisposition, e.Tally)
				}
				if got := e.Records(); !reflect.DeepEqual(recordsByIndex(got), recordsByIndex(want)) || tallyOf(got) != *e.Tally {
					t.Fatalf("resumed %s: records %+v, tally %+v; want %+v", e.Manifest.ID, got, *e.Tally, want)
				}
			}
		})
	}
}

// hdrLine is a header line of the sample manifest with id, newline
// included.
func hdrLine(t *testing.T, id string) string {
	t.Helper()
	m := sampleManifest(id)
	m.SpecJSON, m.ScenariosJSON = nil, nil
	b, err := json.Marshal(journalLine{Type: "sweep", Sweep: m})
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}
