package store

// Tests for the journal's line decoder, held to json.Unmarshal: random
// headers, records and end lines — as the journal writes them, plain or
// with escapes and non-ASCII — decode alike through both, and the plain
// ones take the fast path. Also: the create's buffered write keeps the
// bytes of encoding each line straight to the file.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"reflect"
	"strings"
	"testing"
)

// lineGen draws the values a journal's lines carry.
type lineGen struct{ r *rand.Rand }

// str draws a string: mostly plain ASCII, sometimes empty, sometimes
// with characters encoding/json escapes, sometimes non-ASCII.
func (g lineGen) str() string {
	const plain = "abcdef0123456789 -_.:/XYZ()[]{},;=+*!?#$%@~'`^|"
	var b strings.Builder
	for n := g.r.IntN(24); n > 0; n-- {
		b.WriteByte(plain[g.r.IntN(len(plain))])
	}
	switch g.r.IntN(10) {
	case 0:
		return ""
	case 1:
		return b.String() + []string{`"`, `\`, "\n", "\t", "<", ">", "&", "\x7f", "\x01"}[g.r.IntN(9)]
	case 2:
		return []string{"é", "日本", " ", "\xff", "😀"}[g.r.IntN(5)] + b.String()
	}
	return b.String()
}

func (g lineGen) strs() []string {
	switch g.r.IntN(8) {
	case 0:
		return nil
	case 1:
		return []string{}
	}
	out := make([]string, 1+g.r.IntN(12))
	for i := range out {
		out[i] = g.str()
	}
	return out
}

// count draws an int: 0 half the time, else small, negative or large.
func (g lineGen) count() int {
	switch g.r.IntN(6) {
	case 0, 1, 2:
		return 0
	case 3:
		return -g.r.IntN(5)
	case 4:
		return g.r.Int()
	}
	return g.r.IntN(100)
}

// float draws a float64: 0 half the time, else over many magnitudes,
// so encoding/json writes both its fixed and exponent forms.
func (g lineGen) float() float64 {
	if g.r.IntN(2) == 0 {
		return 0
	}
	f := g.r.Float64() * math.Pow(10, float64(g.r.IntN(60)-30))
	if g.r.IntN(4) == 0 {
		f = -f
	}
	return f
}

func (g lineGen) manifest() *SweepManifest {
	m := &SweepManifest{
		ID:              g.str(),
		SpecHash:        g.str(),
		ScenarioHashes:  g.strs(),
		MaxConcurrent:   g.count(),
		TimeoutSec:      g.float(),
		MaxAttempts:     g.count(),
		CreatedUnixNano: g.r.Int64() - g.r.Int64(),
	}
	if g.r.IntN(2) == 0 {
		m.Key, m.Name = g.str(), g.str()
	}
	if g.r.IntN(2) == 0 {
		m.Names = g.strs()
	}
	if g.r.IntN(10) == 0 { // a pre-split header
		m.SpecJSON, m.ScenariosJSON = json.RawMessage(`{"preset":"frontier"}`), json.RawMessage(`[]`)
	}
	return m
}

func (g lineGen) record() *ScenarioRecord {
	rec := &ScenarioRecord{
		Index:    g.count(),
		Hash:     g.str(),
		State:    []string{"done", "cached", "failed", g.str()}[g.r.IntN(4)],
		Attempts: g.count(),
		WallSec:  g.float(),
		CacheHit: g.r.IntN(2) == 0,
	}
	if g.r.IntN(3) == 0 {
		rec.Error = g.str()
	}
	return rec
}

func (g lineGen) end() journalLine {
	l := journalLine{Type: "end", Disposition: []string{"", "complete", "cancelled", g.str()}[g.r.IntN(4)]}
	if g.r.IntN(4) > 0 {
		l.Tally = &Tally{Done: g.count(), Cached: g.count(), Failed: g.count()}
	}
	return l
}

// plainString reports whether encoding/json writes s as it is, quoted:
// printable ASCII without a character it escapes.
func plainString(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || strings.IndexByte(`"\<>&`, c) >= 0 {
			return false
		}
	}
	return true
}

// plainLine reports whether the fast path must take l as encoding/json
// writes it: every string plain, a header's hashes not null and its
// payload not inline.
func plainLine(l journalLine) bool {
	var strs []string
	switch {
	case l.Sweep != nil:
		m := l.Sweep
		if m.ScenarioHashes == nil || m.SpecJSON != nil || m.ScenariosJSON != nil {
			return false
		}
		strs = append(append([]string{m.ID, m.Key, m.Name, m.SpecHash}, m.ScenarioHashes...), m.Names...)
	case l.Scenario != nil:
		strs = []string{l.Scenario.Hash, l.Scenario.State, l.Scenario.Error}
	default:
		strs = []string{l.Disposition}
	}
	for _, s := range strs {
		if !plainString(s) {
			return false
		}
	}
	return true
}

// checkLine holds decodeLine to json.Unmarshal on one written line and,
// when plain, requires the fast path to take it. It reports whether the
// fast path did.
func checkLine(t *testing.T, b []byte, plain bool) bool {
	t.Helper()
	var ref, got, fast journalLine
	if err := json.Unmarshal(b, &ref); err != nil {
		t.Fatalf("written line %s does not decode: %v", b, err)
	}
	if err := decodeLine(b, &got); err != nil || !reflect.DeepEqual(got, ref) {
		t.Fatalf("line %s decoded to %+v (%v), json.Unmarshal gives %+v", b, got, err, ref)
	}
	took := fastLine(b, &fast)
	if took && !reflect.DeepEqual(fast, ref) {
		t.Fatalf("fast path decoded %s to %+v, json.Unmarshal gives %+v", b, fast, ref)
	}
	if plain && !took {
		t.Fatalf("fast path refused plain line %s", b)
	}
	return took
}

// TestDecodeLineMatchesUnmarshal draws headers, records and end lines —
// keys, names, errors, options and tallies of 0 among them, and strings
// with and without escapes or non-ASCII — and holds each line, as
// json.Marshal writes it for an append, to json.Unmarshal. A journal
// written through the store from the same draws is held line by line to
// the same check.
func TestDecodeLineMatchesUnmarshal(t *testing.T) {
	g := lineGen{rand.New(rand.NewPCG(33, 1))}
	var fast, slow int
	for i := 0; i < 3000; i++ {
		var l journalLine
		switch i % 3 {
		case 0:
			l = journalLine{Type: "sweep", Sweep: g.manifest()}
		case 1:
			l = journalLine{Type: "scenario", Scenario: g.record()}
		default:
			l = g.end()
		}
		b, err := json.Marshal(l)
		if err != nil {
			t.Fatal(err)
		}
		if checkLine(t, b, plainLine(l)) {
			fast++
		} else {
			slow++
		}
	}
	if fast == 0 || slow == 0 {
		t.Fatalf("fast path took %d lines and left %d: both sides must be drawn", fast, slow)
	}

	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		m := g.manifest()
		m.ID = fmt.Sprintf("sw-%04x", i)
		m.SpecJSON, m.ScenariosJSON = json.RawMessage(`{}`), json.RawMessage(`[]`)
		m.ScenarioHashes = make([]string, 1+g.r.IntN(6))
		for k := range m.ScenarioHashes {
			m.ScenarioHashes[k] = g.str()
		}
		var recs []ScenarioRecord
		for k := g.r.IntN(len(m.ScenarioHashes) + 1); k > 0; k-- {
			rec := g.record()
			rec.Index = g.r.IntN(len(m.ScenarioHashes))
			rec.Hash = m.ScenarioHashes[rec.Index]
			recs = append(recs, *rec)
		}
		j, err := s.CreateJournal(m, recs...)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(*g.record()); err != nil && !errors.Is(err, ErrJournalSealed) {
			t.Fatal(err)
		}
		if err := j.End("complete"); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(s.journalPath(m.ID))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range bytes.Split(bytes.TrimSuffix(b, newline), newline) {
			var l journalLine
			if err := json.Unmarshal(line, &l); err != nil {
				t.Fatalf("journal %s: %v", m.ID, err)
			}
			if l.Type != "payload" {
				checkLine(t, line, plainLine(l))
			}
		}
	}
}

// TestCreateJournalBytes pins the create's buffered write to the bytes
// json.Encoder writes for its lines unbuffered: header, payload, the
// records and, when they cover every scenario, the end line — for
// journals smaller and larger than the write buffer.
func TestCreateJournalBytes(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	wide := sampleManifest("sw-0003")
	wide.ScenarioHashes = nil
	for i := 0; i < 300; i++ {
		wide.ScenarioHashes = append(wide.ScenarioHashes, fmt.Sprintf("%064x", i))
		wide.Names = append(wide.Names, fmt.Sprintf("scenario <%d> é", i))
	}
	every := func(m *SweepManifest) []ScenarioRecord {
		var recs []ScenarioRecord
		for i, h := range m.ScenarioHashes {
			recs = append(recs, ScenarioRecord{Index: i, Hash: h, State: "cached", WallSec: 0.25 * float64(i), CacheHit: true})
		}
		return recs
	}
	cases := []struct {
		m    *SweepManifest
		recs []ScenarioRecord
	}{
		{sampleManifest("sw-0001"), nil},
		{sampleManifest("sw-0002"), []ScenarioRecord{{Index: 1, Hash: scenB, State: "failed", Error: "boom", Attempts: 3}}},
		{sampleManifest("sw-0004"), every(sampleManifest("sw-0004"))},
		{wide, every(wide)[:150]},
		{wide, every(wide)},
	}
	for i, c := range cases {
		c.m.ID = fmt.Sprintf("sw-1%03x", i)
		j, err := s.CreateJournal(c.m, c.recs...)
		if err != nil {
			t.Fatal(err)
		}
		j.Detach()
		got, err := os.ReadFile(s.journalPath(c.m.ID))
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		hdr := *c.m
		hdr.SpecJSON, hdr.ScenariosJSON = nil, nil
		lines := []journalLine{{Type: "sweep", Sweep: &hdr}, {Type: "payload", Payload: &sweepPayload{Spec: c.m.SpecJSON, Scenarios: c.m.ScenariosJSON}}}
		for k := range c.recs {
			lines = append(lines, journalLine{Type: "scenario", Scenario: &c.recs[k]})
		}
		if tl := tallyOf(c.recs); tl.Done+tl.Cached+tl.Failed == len(c.m.ScenarioHashes) {
			lines = append(lines, journalLine{Type: "end", Disposition: "complete", Tally: &tl})
		}
		for _, l := range lines {
			if err := enc.Encode(l); err != nil {
				t.Fatal(err)
			}
		}
		if i == len(cases)-1 && want.Len() < 4096 {
			t.Fatalf("widest journal is %d bytes: it must overflow the write buffer", want.Len())
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("case %d: created journal differs from the unbuffered encoding:\n got %s\nwant %s", i, got, want.Bytes())
		}
	}
}
