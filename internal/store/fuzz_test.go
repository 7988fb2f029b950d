package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// FuzzReadJournal fuzzes the sweep log's scan, a function of bytes, in
// memory: on arbitrary bytes read as a log — in the scan's pieces, and
// in pieces of a few bytes, so lines straddle them — scanLog never
// panics, reads nothing of a torn last line (no newline), and returns,
// sweep by sweep, what parseJournal makes of that sweep's lines after
// splitting the log by id (refScan): the entries, oldest first, and the
// sweeps whose header does not parse. The streaming index (indexLog),
// through a window of a few bytes, finds the lines one window over the
// whole log does. Every byte before the torn tail is a
// sweep's or dead. Every record the scan keeps has an index within the
// header's scenarios, the header's hash for that index, and no other
// record for it; decoding the payload of an accepted journal never
// panics; and a tallied journal's tail read holds to the full scan it
// stands in for (parseEager): Records returns what that scan keeps, and
// the journal reads finished with that scan's disposition — unless a
// middle line does not decode or is an end line of its own (a file
// edited by hand), where it still reads finished, keeping the records
// before that line. When a tally matches the records it counts, the
// summary it gives (what it leaves out was cancelled) is the records'
// count of every scenario by state.
//
// The same bytes, read as a per-file journal of an earlier build, hold
// the move into the log (movedLines) to the file's own scan: the lines
// that move read as the file did (checkMoved).
//
// The seed corpus under testdata/fuzz holds per-file journals; the
// seeds added here are logs. TestLogSeedsReopenAppendRewrite runs the
// file-backed half of the check — reopen, append, rewrite, reopen — on
// every seed.
func FuzzReadJournal(f *testing.F) {
	for _, seed := range logSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkScan(t, data)
		checkMoved(t, data)
	})
}

// logSeeds are logs of two to four sweeps: interleaved, finished and
// incomplete; a sweep tombstoned and written again; a torn last line; a
// header that does not decode and a line without an id; a fused record
// line; a tallied journal sealed at create.
func logSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	journal := func(id string, tail ...string) []string {
		m := sampleManifest(id)
		m.SpecJSON, m.ScenariosJSON = nil, nil
		m.Names = []string{"a", "b"}
		b, err := json.Marshal(journalLine{Type: "sweep", Sweep: m})
		if err != nil {
			tb.Fatal(err)
		}
		return append([]string{string(b), `{"type":"payload","payload":{"spec":{},"scenarios":[]}}`}, tail...)
	}
	rec := func(i int, state string) string {
		return fmt.Sprintf(`{"type":"scenario","scenario":{"index":%d,"hash":"%s","state":"%s"}}`, i, []string{scenA, scenB}[i], state)
	}
	const end = `{"type":"end","disposition":"complete"}`
	tallied := `{"type":"end","disposition":"complete","tally":{"done":1,"cached":1,"failed":0}}`
	log := func(lines ...string) []byte { return []byte(strings.Join(lines, "")) }
	line := func(id, l string) string { return id + " " + l + "\n" }
	each := func(id string, ls []string) string {
		var b strings.Builder
		for _, l := range ls {
			b.WriteString(line(id, l))
		}
		return b.String()
	}
	a, b := journal("sw-a0"), journal("sw-b0")
	return [][]byte{
		log(line("sw-a0", a[0]), line("sw-b0", b[0]), line("sw-a0", a[1]), line("sw-b0", b[1]),
			line("sw-a0", rec(0, "done")), line("sw-b0", rec(1, "failed")), line("sw-a0", rec(1, "cached")), line("sw-a0", end)),
		log(each("sw-a0", journal("sw-a0", rec(0, "done"), end)), line("sw-a0", string(tombstone)),
			each("sw-b0", journal("sw-b0", rec(1, "done"))), each("sw-a0", journal("sw-a0", rec(1, "failed")))),
		log(each("sw-a0", journal("sw-a0", rec(0, "done"))), `sw-a0 {"type":"scenario","scenario":{"ind`),
		log(line("sw-c0", "not json at all"), line("sw-c0", rec(0, "done")), "no id on this line\n",
			line("sw-A0", a[0]), each("sw-b0", journal("sw-b0", rec(0, "done"), end))),
		log(each("sw-a0", journal("sw-a0", rec(0, "done"))),
			line("sw-a0", `{"type":"scenario","scenario":{"ind`+rec(1, "done")), line("sw-a0", end)),
		log(each("sw-a0", journal("sw-a0", rec(0, "done"), rec(1, "cached"), tallied)),
			each("sw-b0", journal("sw-b0", rec(1, "cached"), rec(0, "done"), tallied))),
	}
}

// refScan is the reference the log scan is held to: the log's lines,
// up to its last newline, are split by the id before their first space
// (lines without a valid one dropped), a tombstone drops its sweep's
// lines so far, and each sweep's lines, without their ids, go through
// parseJournal one by one; the entries are then stable-sorted by
// creation time. It returns each entry's journal alongside it, and the
// sweeps whose header does not parse.
func refScan(b []byte) (entries []JournalEntry, journals [][]byte, corrupt []string) {
	var order []string
	byID := make(map[string][]byte)
	for _, line := range bytes.SplitAfter(b, newline) {
		if !bytes.HasSuffix(line, newline) {
			break
		}
		id, body, ok := strings.Cut(string(line[:len(line)-1]), " ")
		if !ok || !ValidSweepID(id) {
			continue
		}
		if body == string(tombstone) {
			delete(byID, id)
			order = slices.DeleteFunc(order, func(o string) bool { return o == id })
			continue
		}
		if _, seen := byID[id]; !seen {
			order = append(order, id)
		}
		byID[id] = append(byID[id], body+"\n"...)
	}
	for _, id := range order {
		e, err := parseJournal(byID[id])
		if err != nil {
			corrupt = append(corrupt, id)
			continue
		}
		entries = append(entries, *e)
		journals = append(journals, byID[id])
	}
	idx := make([]int, len(entries))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, k int) bool {
		return entries[idx[i]].Manifest.CreatedUnixNano < entries[idx[k]].Manifest.CreatedUnixNano
	})
	sorted := make([]JournalEntry, len(idx))
	sortedJournals := make([][]byte, len(idx))
	for i, k := range idx {
		sorted[i], sortedJournals[i] = entries[k], journals[k]
	}
	return sorted, sortedJournals, corrupt
}

// checkScan holds scanLog on data to refScan and the scan's invariants.
func checkScan(t *testing.T, data []byte) {
	t.Helper()
	want, journals, corrupt := refScan(data)
	if len(want) == 0 {
		want = nil
	}
	var sc logScan
	for _, piece := range []int{scanPiece, 1 + len(data)%29} {
		var err error
		if sc, err = scanLog(bytes.NewReader(data), int64(len(data)), piece); err != nil {
			t.Fatal(err)
		}
		if len(sc.entries) == 0 {
			sc.entries = nil
		}
		if !reflect.DeepEqual(sc.entries, want) {
			t.Fatalf("scan in pieces of %d bytes read\n%+v\nsplitting by id and parsing each journal reads\n%+v", piece, sc.entries, want)
		}
	}
	whole, err := indexLog(bytes.NewReader(data), int64(len(data)), len(data)+1)
	if err != nil {
		t.Fatal(err)
	}
	if lines, err := indexLog(bytes.NewReader(data), int64(len(data)), 1+len(data)%13); err != nil || !slices.Equal(lines, whole) {
		t.Fatalf("indexed through a window of %d bytes: %+v (%v), in one: %+v", 1+len(data)%13, lines, err, whole)
	}
	if !slices.Equal(sc.corrupt, corrupt) {
		t.Fatalf("corrupt headers %q, want %q", sc.corrupt, corrupt)
	}
	var live int64
	for _, n := range sc.sizes {
		live += n
	}
	if read := int64(bytes.LastIndexByte(data, '\n') + 1); live+sc.dead != read {
		t.Fatalf("%d live and %d dead bytes of the %d before the torn tail", live, sc.dead, read)
	}
	for i := range sc.entries {
		e := &sc.entries[i]
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
		_, _, _ = e.Payload()
		eagerRecs, eagerDisposition := parseEager(journals[i])
		if !reflect.DeepEqual(recs, eagerRecs) {
			t.Fatalf("records %+v, the full scan keeps %+v", recs, eagerRecs)
		}
		if e.Tally == nil && e.EndDisposition != eagerDisposition {
			t.Fatalf("disposition %q, the full scan reads %q", e.EndDisposition, eagerDisposition)
		}
		if e.Tally != nil {
			checkTallied(t, e, eagerDisposition)
		}
	}
}

// checkMoved reads data as a per-file journal: movedLines fails exactly
// when parseJournal does, and the lines it moves parse to the file's
// manifest, payload, records, disposition and tally.
func checkMoved(t *testing.T, data []byte) {
	t.Helper()
	orig, perr := parseJournal(data)
	moved, err := movedLines(data)
	if (err == nil) != (perr == nil) {
		t.Fatalf("movedLines: %v; the file's scan: %v", err, perr)
	}
	if err != nil {
		return
	}
	if len(moved) > 0 && moved[len(moved)-1] != '\n' {
		t.Fatalf("moved lines %q do not end with a newline", moved)
	}
	got, err := parseJournal(moved)
	if err != nil {
		t.Fatalf("moved lines %q: %v", moved, err)
	}
	sameJournal(t, got, orig)
}

// sameJournal fails unless got reads as want does: the same manifest,
// disposition, tally, records and payload.
func sameJournal(t *testing.T, got, want *JournalEntry) {
	t.Helper()
	if !reflect.DeepEqual(got.Manifest, want.Manifest) || got.EndDisposition != want.EndDisposition ||
		!reflect.DeepEqual(got.Tally, want.Tally) || !reflect.DeepEqual(got.Records(), want.Records()) {
		t.Fatalf("read %+v %q %+v %+v, want %+v %q %+v %+v", got.Manifest, got.EndDisposition, got.Tally, got.Records(),
			want.Manifest, want.EndDisposition, want.Tally, want.Records())
	}
	gs, gc, gerr := got.Payload()
	ws, wc, werr := want.Payload()
	if (gerr == nil) != (werr == nil) || !bytes.Equal(gs, ws) || !bytes.Equal(gc, wc) {
		t.Fatalf("payload %s %s (%v), want %s %s (%v)", gs, gc, gerr, ws, wc, werr)
	}
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
