package service

// Upgrading a store directory whose sweep journals an earlier build
// wrote one file per sweep: at the first Open they move into the sweep
// log, and recovery reads them as that build did.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"exadigit/internal/config"
	"exadigit/internal/core"
	"exadigit/internal/store"
)

// writePerFileJournals replaces the log of the store in dir with one
// journal file per sweep, dir/sweeps/<id>.journal, each holding the
// sweep's journal lines as the earlier build wrote them, then applies
// edit to each.
func writePerFileJournals(t *testing.T, dir string, ids map[string]string, edit func(kind string, b []byte) []byte) {
	t.Helper()
	for kind, id := range ids {
		path := filepath.Join(dir, "sweeps", id+".journal")
		if err := os.WriteFile(path, edit(kind, journalOf(t, dir, id)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Remove(journalLog(dir)); err != nil {
		t.Fatal(err)
	}
}

// preSplit rewrites a journal as a build before the header/payload split
// wrote it: spec and scenarios inline in the header, no names, no
// payload line.
func preSplit(t *testing.T, b []byte) []byte {
	t.Helper()
	lines := bytes.SplitAfter(b, []byte("\n"))
	var hdr struct {
		Type  string                     `json:"type"`
		Sweep map[string]json.RawMessage `json:"sweep"`
	}
	var payload struct {
		Payload struct {
			Spec      json.RawMessage `json:"spec"`
			Scenarios json.RawMessage `json:"scenarios"`
		} `json:"payload"`
	}
	if err := json.Unmarshal(lines[0], &hdr); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(lines[1], &payload); err != nil {
		t.Fatal(err)
	}
	delete(hdr.Sweep, "names")
	hdr.Sweep["spec"], hdr.Sweep["scenarios"] = payload.Payload.Spec, payload.Payload.Scenarios
	line, err := json.Marshal(hdr)
	if err != nil {
		t.Fatal(err)
	}
	return slices.Concat(line, []byte("\n"), bytes.Join(lines[2:], nil))
}

// sweepDigest is what a recovered sweep serves, in a form two
// recoveries compare by: its summary, each scenario's state, error and
// attempts, and each streamed result's index, state and whether it
// carries a report.
func sweepDigest(t *testing.T, svc *Service, id string) string {
	t.Helper()
	sw, ok := svc.Sweep(id)
	if !ok {
		return "absent"
	}
	st := sw.Status()
	var b strings.Builder
	fmt.Fprintf(&b, "finished=%v recovered=%v done=%d cached=%d failed=%d cancelled=%d;", st.Finished, st.Recovered, st.Done, st.Cached, st.Failed, st.Cancelled)
	for _, sc := range st.Scenarios {
		fmt.Fprintf(&b, " %d:%s/%d/%q", sc.Index, sc.State, sc.Attempts, sc.Error)
	}
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/sweeps/"+id+"/stream", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stream %s: %d", id, rec.Code)
	}
	var streamed []string
	for _, line := range strings.Split(strings.TrimSpace(rec.Body.String()), "\n") {
		var e ResultEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("stream %s line %q: %v", id, line, err)
		}
		streamed = append(streamed, fmt.Sprintf("%d:%s:%v", e.Index, e.State, e.Report != nil))
	}
	slices.Sort(streamed)
	fmt.Fprintf(&b, "; stream %s", strings.Join(streamed, " "))
	return b.String()
}

// TestRecoverUpgradesPerFileJournals: a store directory of per-file
// journals as the earlier build left them — finished and tallied,
// pre-tally, incomplete, torn tail, fused, a pre-split header and an
// unreadable header — recovers with the RecoverStats, statuses and
// streamed results that build's recovery gave (the want values below,
// which it gives on the same directory). The unreadable journal is
// quarantined, no *.journal file is left, and a second restart reads
// every sweep the same, the resumed ones finished.
func TestRecoverUpgradesPerFileJournals(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc1 := New(chaosOptions(st1))
	failing := synthScenario(921, 900)
	failHash, err := HashScenario(failing)
	if err != nil {
		t.Fatal(err)
	}
	stuck := map[string]bool{}
	stuckScenarios := make([]core.Scenario, 3)
	for i := range stuckScenarios {
		stuckScenarios[i] = synthScenario(int64(931+i), 900)
		h, err := HashScenario(stuckScenarios[i])
		if err != nil {
			t.Fatal(err)
		}
		stuck[h] = true
	}
	release := make(chan struct{})
	svc1.SetFaultInjector(&FaultInjector{
		BeforeRun: func(ctx context.Context, f Fault) error {
			switch {
			case f.ScenarioHash == failHash:
				return errors.New("chaos: injected permanent failure")
			case stuck[f.ScenarioHash]:
				select {
				case <-release:
				case <-ctx.Done():
				}
				return ctx.Err()
			}
			return nil
		},
	})
	ids := make(map[string]string)
	submit := func(kind string, scs ...core.Scenario) *Sweep {
		sw, err := svc1.Submit(config.Frontier(), scs, SweepOptions{Name: kind, Key: kind + "-key"})
		if err != nil {
			t.Fatal(err)
		}
		ids[kind] = sw.ID()
		return sw
	}
	waitSweep(t, submit("tallied", synthScenario(922, 900), synthScenario(923, 900), failing))
	waitSweep(t, submit("pre-tally", synthScenario(924, 900), failing))
	waitSweep(t, submit("pre-split", synthScenario(925, 900), synthScenario(926, 900)))
	for i, kind := range []string{"incomplete", "torn", "fused"} {
		appends := st1.Stats().JournalAppends
		killed := submit(kind, synthScenario(int64(927+i), 900), stuckScenarios[i])
		waitJournalAppends(t, st1, appends+1)
		killed.DetachJournal()
	}
	svc1.CancelAll()
	close(release)
	fusedHash, err := HashScenario(stuckScenarios[2])
	if err != nil {
		t.Fatal(err)
	}
	writePerFileJournals(t, dir, ids, func(kind string, b []byte) []byte {
		switch kind {
		case "pre-tally":
			return tallyField.ReplaceAllLiteral(b, nil)
		case "pre-split":
			return preSplit(t, b)
		case "torn":
			return append(b, `{"type":"scenario","scenario":{"ind`...)
		case "fused":
			return append(b, `{"type":"scenario","scenario":{"ind`+
				`{"type":"scenario","scenario":{"index":1,"hash":"`+fusedHash+`","state":"done","attempts":1}}`+"\n"+
				`{"type":"end","disposition":"complete"}`+"\n"...)
		}
		return b
	})
	bad := filepath.Join(dir, "sweeps", "sw-bad-0.journal")
	if err := os.WriteFile(bad, []byte("not json at all\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	want := map[string]string{
		"tallied":    `finished=true recovered=true done=2 cached=0 failed=1 cancelled=0; 0:done/1/"" 1:done/1/"" 2:failed/3/"service: scenario 2 (5ba243637603) failed after 3 attempt(s): chaos: injected permanent failure"; stream 0:done:true 1:done:true 2:failed:false`,
		"pre-tally":  `finished=true recovered=true done=1 cached=0 failed=1 cancelled=0; 0:done/1/"" 1:failed/3/"service: scenario 1 (5ba243637603) failed after 3 attempt(s): chaos: injected permanent failure"; stream 0:done:true 1:failed:false`,
		"pre-split":  `finished=true recovered=true done=2 cached=0 failed=0 cancelled=0; 0:done/1/"" 1:done/1/""; stream 0:done:true 1:done:true`,
		"incomplete": `finished=true recovered=true done=2 cached=0 failed=0 cancelled=0; 0:done/1/"" 1:done/1/""; stream 0:done:true 1:done:true`,
		"torn":       `finished=true recovered=true done=2 cached=0 failed=0 cancelled=0; 0:done/1/"" 1:done/1/""; stream 0:done:true 1:done:true`,
		"fused":      `finished=true recovered=true done=2 cached=0 failed=0 cancelled=0; 0:done/1/"" 1:done/1/""; stream 0:done:true 1:done:true`,
	}
	for restart := 0; restart < 2; restart++ {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		svc := New(chaosOptions(st))
		stats, err := svc.Recover()
		if err != nil {
			t.Fatal(err)
		}
		wantStats := RecoverStats{Adopted: 3, Finished: 3, Terminal: 3, Requeued: 3}
		if restart == 1 {
			wantStats = RecoverStats{Finished: 6}
		}
		if stats != wantStats {
			t.Fatalf("restart %d: recover stats %+v, want %+v", restart, stats, wantStats)
		}
		for kind, id := range ids {
			if sw, _ := svc.Sweep(id); restart == 0 && (kind == "incomplete" || kind == "torn" || kind == "fused") {
				waitSweep(t, sw)
			}
			if got := sweepDigest(t, svc, id); got != want[kind] {
				t.Errorf("restart %d, %s:\n got %s\nwant %s", restart, kind, got, want[kind])
			}
		}
		if restart == 0 {
			if _, err := os.Stat(bad + ".corrupt"); err != nil {
				t.Fatalf("unreadable journal not quarantined: %v", err)
			}
			if c := st.Stats().CorruptQuarantined; c != 1 {
				t.Fatalf("CorruptQuarantined = %d, want 1", c)
			}
		}
		if left, err := filepath.Glob(filepath.Join(dir, "sweeps", "*.journal")); err != nil || len(left) != 0 {
			t.Fatalf("restart %d: per-file journals left: %v, %v", restart, left, err)
		}
		svc.Close()
	}
}
