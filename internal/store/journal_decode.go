package store

// The journal's line decoder. Restart decodes every journal's header
// and last line, and a recovered sweep's first request decodes its
// record lines; decoded by reflection through encoding/json, those
// lines are most of that cost. decodeLine takes a fast path for the
// three line kinds the scan reads — the header ("sweep"), the record
// ("scenario") and the end line — when the line is laid out exactly as
// encoding/json writes those types:
//
//   - keys in struct field order, an omitempty field present or absent;
//   - no whitespace;
//   - ASCII strings with no escapes and no control characters;
//   - integers as -?(0|[1-9][0-9]*), parsed by strconv.ParseInt;
//   - floats as strict JSON numbers, parsed by strconv.ParseFloat.
//
// Every other line goes to json.Unmarshal, which stays the reference:
// escapes, non-ASCII, null arrays, a pre-split header's inline spec,
// unknown or reordered keys and trailing bytes all take it. A line the
// fast path takes decodes to what json.Unmarshal makes of it
// (FuzzDecodeLine), and every line this package writes with plain
// ASCII strings takes it (TestDecodeLineMatchesUnmarshal).

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
)

// decodeLine decodes one journal line, without its newline, into l,
// which must be zero.
func decodeLine(b []byte, l *journalLine) error {
	if fastLine(b, l) {
		return nil
	}
	*l = journalLine{}
	return json.Unmarshal(b, l)
}

// fastLine decodes b into l if it is a header, record or end line in
// encoding/json's layout, and reports whether it did. When it did not,
// l may hold part of the line.
func fastLine(b []byte, l *journalLine) bool {
	d := lineDecoder{b: b, ok: true}
	d.open()
	if !d.key("type") {
		return false
	}
	switch string(d.raw()) {
	case "sweep":
		l.Type = "sweep"
		if d.key("sweep") {
			l.Sweep = new(SweepManifest)
			d.manifest(l.Sweep)
		}
	case "scenario":
		l.Type = "scenario"
		if d.key("scenario") {
			l.Scenario = new(ScenarioRecord)
			d.record(l.Scenario)
		}
	case "end":
		l.Type = "end"
		if d.key("disposition") {
			l.Disposition = d.word()
		}
		if d.key("tally") {
			l.Tally = new(Tally)
			d.tally(l.Tally)
		}
	default:
		return false
	}
	d.close()
	return d.ok && d.i == len(d.b)
}

func (d *lineDecoder) manifest(m *SweepManifest) {
	d.open()
	if d.key("id") {
		m.ID = d.str()
	}
	if d.key("key") {
		m.Key = d.str()
	}
	if d.key("name") {
		m.Name = d.str()
	}
	if d.key("spec_hash") {
		m.SpecHash = d.str()
	}
	if d.key("scenario_hashes") {
		m.ScenarioHashes = d.strs()
	}
	if d.key("names") {
		m.Names = d.strs()
	}
	if d.key("max_concurrent") {
		m.MaxConcurrent = d.intNum()
	}
	if d.key("timeout_sec") {
		m.TimeoutSec = d.float()
	}
	if d.key("max_attempts") {
		m.MaxAttempts = d.intNum()
	}
	if d.key("created_unix_nano") {
		m.CreatedUnixNano = d.integer(64)
	}
	d.close()
}

func (d *lineDecoder) record(r *ScenarioRecord) {
	d.open()
	if d.key("index") {
		r.Index = d.intNum()
	}
	if d.key("hash") {
		r.Hash = d.str()
	}
	if d.key("state") {
		r.State = d.word()
	}
	if d.key("error") {
		r.Error = d.str()
	}
	if d.key("attempts") {
		r.Attempts = d.intNum()
	}
	if d.key("wall_sec") {
		r.WallSec = d.float()
	}
	if d.key("cache_hit") {
		r.CacheHit = d.boolean()
	}
	d.close()
}

func (d *lineDecoder) tally(t *Tally) {
	d.open()
	if d.key("done") {
		t.Done = d.intNum()
	}
	if d.key("cached") {
		t.Cached = d.intNum()
	}
	if d.key("failed") {
		t.Failed = d.intNum()
	}
	d.close()
}

// lineDecoder walks one line for fastLine. Once the line leaves the
// fast path's layout, ok is false and every method is a no-op that
// returns a zero value.
type lineDecoder struct {
	b    []byte
	i    int
	ok   bool
	more bool // the current object has a member before the next key
}

// eat consumes c if it is the next byte, and reports whether it did.
func (d *lineDecoder) eat(c byte) bool {
	if d.ok && d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

func (d *lineDecoder) need(c byte) {
	if !d.eat(c) {
		d.ok = false
	}
}

func (d *lineDecoder) open() {
	d.need('{')
	d.more = false
}

func (d *lineDecoder) close() {
	d.need('}')
	d.more = true
}

// key consumes the current object's next key, and the comma before it,
// if that key is name, and reports whether it did.
func (d *lineDecoder) key(name string) bool {
	if !d.ok {
		return false
	}
	rest := d.b[d.i:]
	if d.more {
		if len(rest) == 0 || rest[0] != ',' {
			return false
		}
		rest = rest[1:]
	}
	n := len(name)
	if len(rest) < n+3 || rest[0] != '"' || string(rest[1:n+1]) != name || rest[n+1] != '"' || rest[n+2] != ':' {
		return false
	}
	d.i = len(d.b) - len(rest) + n + 3
	d.more = true
	return true
}

// raw consumes an ASCII string without escapes or control characters
// and returns its bytes, which alias the line.
func (d *lineDecoder) raw() []byte {
	d.need('"')
	for start := d.i; d.ok && d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			return d.b[start : d.i-1]
		case c < 0x20 || c == '\\' || c >= 0x80:
			d.ok = false
		}
	}
	d.ok = false
	return nil
}

func (d *lineDecoder) str() string { return string(d.raw()) }

// word is str for a record's state or an end line's disposition: the
// values the journal writes come back shared, not allocated.
func (d *lineDecoder) word() string {
	b := d.raw()
	for _, w := range [...]string{"done", "cached", "failed", "complete", "cancelled"} {
		if string(b) == w {
			return w
		}
	}
	return string(b)
}

// strs consumes an array of strings. They share one allocation, their
// bytes end to end; an empty array is an empty slice, not nil, as
// json.Unmarshal makes it.
func (d *lineDecoder) strs() []string {
	d.need('[')
	if d.eat(']') {
		return []string{}
	}
	start, n, size := d.i, 0, 0
	for d.ok {
		size += len(d.raw())
		n++
		if d.eat(']') {
			break
		}
		d.need(',')
	}
	if !d.ok {
		return nil
	}
	items := d.b[start : d.i-1] // "a","b",…,"z"
	var sb strings.Builder
	sb.Grow(size)
	for rest := items; len(rest) > 0; {
		var item []byte
		item, rest = nextItem(rest)
		sb.Write(item)
	}
	text, out := sb.String(), make([]string, n)
	for k, rest := 0, items; k < n; k++ {
		var item []byte
		item, rest = nextItem(rest)
		out[k], text = text[:len(item)], text[len(item):]
	}
	return out
}

// nextItem splits the text of a string array that strs has checked,
// "a","b",…, into its first string's bytes and the text after them.
func nextItem(items []byte) (item, rest []byte) {
	end := 1 + bytes.IndexByte(items[1:], '"')
	return items[1:end], items[min(end+2, len(items)):]
}

func (d *lineDecoder) intNum() int { return int(d.integer(strconv.IntSize)) }

// integer consumes -?(0|[1-9][0-9]*) that fits in bits.
func (d *lineDecoder) integer(bits int) int64 {
	start := d.i
	d.eat('-')
	d.natural()
	if !d.ok {
		return 0
	}
	n, err := strconv.ParseInt(string(d.b[start:d.i]), 10, bits)
	if err != nil {
		d.ok = false
	}
	return n
}

// float consumes a JSON number that fits in a float64.
func (d *lineDecoder) float() float64 {
	start := d.i
	d.eat('-')
	d.natural()
	if d.eat('.') {
		d.digits()
	}
	if d.eat('e') || d.eat('E') {
		_ = d.eat('+') || d.eat('-')
		d.digits()
	}
	if !d.ok {
		return 0
	}
	f, err := strconv.ParseFloat(string(d.b[start:d.i]), 64)
	if err != nil {
		d.ok = false
	}
	return f
}

// natural consumes 0|[1-9][0-9]*.
func (d *lineDecoder) natural() {
	if !d.eat('0') {
		d.digits()
	}
}

// digits consumes [0-9]+.
func (d *lineDecoder) digits() {
	start := d.i
	for d.ok && d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
		d.i++
	}
	if d.i == start {
		d.ok = false
	}
}

func (d *lineDecoder) boolean() bool {
	rest := d.b[d.i:]
	switch {
	case d.ok && len(rest) >= 4 && string(rest[:4]) == "true":
		d.i += 4
		return true
	case d.ok && len(rest) >= 5 && string(rest[:5]) == "false":
		d.i += 5
	default:
		d.ok = false
	}
	return false
}
