package store

// The sweep log: every sweep's journal in one append-only file,
// dir/sweeps/journal.log. Each log line is a sweep id, a space, and one
// journal line (journal.go) byte for byte:
//
//	sw-18f3…-9abc {"type":"sweep","sweep":{…header…}}
//	sw-18f3…-9abc {"type":"payload","payload":{…}}
//	sw-18f4…-0123 {"type":"scenario","scenario":{…}}   // sweeps interleave
//	sw-18f3…-9abc {"type":"end","disposition":"complete","tally":{…}}
//	sw-18f2…-7777 {"type":"removed"}                   // tombstone
//
// A sweep's journal is its lines after its last tombstone, in log order,
// without their ids: indexGroups finds them, and parseJournal reads it as
// it read a journal file of its own.
//
// Writes are group-committed (sweepLog.commit): the lines a call queues
// join the open batch, one write and one fsync cover every line queued
// while the previous batch synced, and a call that waits returns only
// once a sync covers its lines. A batch that fails to write or sync is
// cut back off the log, and every call in it gets the error. Each batch
// takes an exclusive flock on the log for its own duration, so Stores
// that share a directory — other processes, or a Store abandoned
// without being closed — interleave whole batches; a writer that finds
// the file at the path replaced (a rewrite renames a new one over it)
// reopens it. A torn last line — a write cut short by a crash — is cut
// off at Open and before every batch, so a line is never appended onto
// a fragment.
//
// RemoveJournal appends a tombstone. Its bytes and the lines before it
// are dead, and once the log's dead bytes exceed its live bytes plus
// logRewriteFloor, a goroutine of its own rewrites the log to its live
// lines, in log order (sweepLog.rewrite: temp file, fsync, rename,
// directory fsync), holding the lock only for its last step.
//
// Per-file journals an earlier build wrote (dir/sweeps/<id>.journal)
// move into the log at Open (Store.openLog), then are removed.

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
)

const (
	logName = "journal.log"
	// logRewriteFloor is how many dead bytes the log may hold beyond its
	// live bytes before it is rewritten: a small log is never rewritten
	// only because most of it is dead.
	logRewriteFloor = 64 << 10
)

// tombstone is the journal line RemoveJournal appends for a sweep.
var tombstone = []byte(`{"type":"removed"}`)

// appendLogLine appends the log line of one journal line of sweep id.
func appendLogLine(buf []byte, id string, line []byte) []byte {
	buf = append(buf, id...)
	buf = append(buf, ' ')
	buf = append(buf, line...)
	return append(buf, '\n')
}

// logItem is one call's share of a batch: the bytes of its lines, all
// of sweep id, and whether they are a tombstone.
type logItem struct {
	id   string
	n    int
	tomb bool
}

// logBatch is the lines queued for one write.
type logBatch struct {
	buf   []byte
	items []logItem
	sync  bool // a call waits for a sync of this batch
	done  bool
	err   error
}

// logAcct counts a log file's bytes: each live sweep's, the dead ones,
// and the file size they add up to with bytes of unknown lines (written
// by another Store) counted live. It decides when to rewrite; the
// rewrite itself reads the file.
type logAcct struct {
	fi         os.FileInfo // the file counted; nil for none
	size       int64
	live, dead int64
	sizes      map[string]int64
}

// add counts n bytes of lines of sweep id appended to the file: the
// sweep's own lines, a tombstone (dead, with the sweep's lines before
// it), or, for an id of "", lines of no sweep (dead).
func (a *logAcct) add(id string, n int64, tomb bool) {
	a.size += n
	switch {
	case id == "":
		a.dead += n
	case tomb:
		d := a.sizes[id]
		delete(a.sizes, id)
		a.live -= d
		a.dead += d + n
	default:
		a.sizes[id] += n
		a.live += n
	}
}

// due reports whether the file is due a rewrite: its dead bytes exceed
// its live bytes plus logRewriteFloor.
func (a *logAcct) due() bool { return a.dead > a.live+logRewriteFloor }

// sweepLog is a Store's writer of the log. At most one goroutine at a
// time is busy writing a batch; f, fi and acct are that goroutine's. A
// rewrite runs on a goroutine of its own, beside the batches.
type sweepLog struct {
	dir, path string

	mu        sync.Mutex
	cond      sync.Cond
	open      *logBatch
	busy      bool
	rewriting bool     // a rewrite runs (rewriteDue)
	counted   *logAcct // counts of a file the last scan read or a rewrite wrote, for the next batch to adopt
	recount   bool     // a rewrite failed: the next batch counts the file afresh

	f    *os.File
	fi   os.FileInfo // f's, as of its last lock
	acct logAcct

	syncs, rewrites uint64 // under mu
}

func newSweepLog(dir string) *sweepLog {
	l := &sweepLog{dir: filepath.Join(dir, journalDirName), open: &logBatch{}}
	l.path = filepath.Join(l.dir, logName)
	l.cond.L = &l.mu
	return l
}

// commit queues buf, made of items, for the log. With wait it returns
// once a write and a sync cover buf, with the error of that batch.
// Without, it returns once buf is written, or at once when a busy
// goroutine will write it next; no sync is issued for it alone.
func (l *sweepLog) commit(buf []byte, items []logItem, wait bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.open
	b.buf = append(b.buf, buf...)
	b.items = append(b.items, items...)
	b.sync = b.sync || wait
	for !b.done {
		if !l.busy {
			l.lead()
			continue
		}
		if !wait {
			return nil
		}
		l.cond.Wait()
	}
	return b.err
}

// lead writes the open batch, starts a rewrite when the batch leaves the
// log due and none runs, and goes on with the next batch while no call
// waits to lead it. Called with l.mu held and no goroutine busy.
func (l *sweepLog) lead() {
	l.busy = true
	for {
		b := l.open
		l.open = &logBatch{}
		l.mu.Unlock()
		due, err := l.write(b)
		l.mu.Lock()
		if err == nil && b.sync {
			l.syncs++
		}
		b.done, b.err = true, err
		l.cond.Broadcast()
		if due && !l.rewriting {
			l.rewriting = true
			go l.rewriteDue()
		}
		if len(l.open.items) == 0 || l.open.sync {
			break
		}
	}
	l.busy = false
	l.cond.Broadcast()
}

// rewriteDue rewrites the log, again while the file it wrote is due: a
// rewrite runs off the path of the calls whose batch left the log due,
// and holds up batches only for its last step (rewrite). Close waits
// for it.
func (l *sweepLog) rewriteDue() {
	for {
		acct, err := l.rewrite()
		l.mu.Lock()
		if err != nil {
			l.recount = true // the next rewrite waits for as many dead bytes again
		}
		if err != nil || !acct.due() {
			l.rewriting = false
			l.cond.Broadcast()
			l.mu.Unlock()
			return
		}
		l.mu.Unlock()
	}
}

// idle waits, with l.mu held, until no batch is being written and no
// rewrite runs.
func (l *sweepLog) idle() {
	for l.busy || l.rewriting {
		l.cond.Wait()
	}
}

// write appends one batch to the log under its lock, fsynced when a
// call waits for it, and reports whether the log is due a rewrite. A
// write or sync that fails is cut back off the log.
func (l *sweepLog) write(b *logBatch) (due bool, err error) {
	size, err := l.lock(true)
	if err != nil {
		return false, err
	}
	defer l.unlock()
	l.count(size)
	_, err = l.f.WriteAt(b.buf, size)
	if err == nil && b.sync {
		err = l.f.Sync()
	}
	if err != nil {
		_ = l.f.Truncate(size)
		l.acct.fi = nil
		return false, err
	}
	for _, it := range b.items {
		l.acct.add(it.id, int64(it.n), it.tomb)
	}
	return l.acct.due(), nil
}

// count brings the accounting to the locked file of size bytes: it
// adopts counts a scan or a rewrite left of this file, counts bytes
// another Store appended as live, and starts afresh, with every byte
// live, on a file it has no counts of or after a failed rewrite.
func (l *sweepLog) count(size int64) {
	l.mu.Lock()
	counted, recount := l.counted, l.recount
	l.counted, l.recount = nil, false
	l.mu.Unlock()
	fi, a := l.fi, &l.acct
	if counted != nil && os.SameFile(counted.fi, fi) && counted.size <= size {
		*a = *counted
	}
	switch {
	case recount || a.fi == nil || !os.SameFile(a.fi, fi) || size < a.size:
		*a = logAcct{fi: fi, size: size, live: size, sizes: make(map[string]int64)}
	case size > a.size:
		a.live += size - a.size
		a.size = size
	}
}

// lock opens the log if need be (creating it when create is set and it
// is missing), takes its exclusive lock, reopens it when the file at the
// path is no longer the one open, and cuts a torn last line off it. It
// returns the log's size.
func (l *sweepLog) lock(create bool) (int64, error) {
	for {
		if l.f == nil {
			f, err := l.openFile(create)
			if err != nil {
				return 0, err
			}
			l.f = f
		}
		fi, ok, err := lockCurrent(l.f, l.path, syscall.LOCK_EX)
		if ok {
			size, err := wholeLines(l.f, fi.Size())
			if err == nil && size < fi.Size() {
				err = l.f.Truncate(size)
			}
			if err != nil {
				l.unlock()
				return 0, err
			}
			l.fi = fi
			return size, nil
		}
		if err != nil {
			return 0, err
		}
		// Replaced by a rewrite, or removed: open what is at the path now.
		_ = l.f.Close()
		l.f = nil
	}
}

func (l *sweepLog) unlock() { _ = flock(l.f, syscall.LOCK_UN) }

// lockCurrent takes f's lock (how) and reports, with f's FileInfo,
// whether f is still the file at path. f is left locked only when it is.
func lockCurrent(f *os.File, path string, how int) (os.FileInfo, bool, error) {
	if err := flock(f, how); err != nil {
		return nil, false, err
	}
	fi, err := f.Stat()
	if err == nil {
		var cur os.FileInfo
		if cur, err = os.Stat(path); err == nil && os.SameFile(fi, cur) {
			return fi, true, nil
		}
		if errors.Is(err, os.ErrNotExist) {
			err = nil
		}
	}
	_ = flock(f, syscall.LOCK_UN)
	return nil, false, err
}

// openFile opens the log for reading and writing. A log it creates has
// its directory entry fsynced, and so has the sweeps directory when it
// creates that too.
func (l *sweepLog) openFile(create bool) (*os.File, error) {
	f, err := os.OpenFile(l.path, os.O_RDWR, 0)
	if err == nil || !create || !errors.Is(err, os.ErrNotExist) {
		return f, err
	}
	_, statErr := os.Stat(l.dir)
	if err := os.MkdirAll(l.dir, 0o755); err != nil {
		return nil, err
	}
	if f, err = os.OpenFile(l.path, os.O_RDWR|os.O_CREATE, 0o644); err != nil {
		return nil, err
	}
	err = syncDir(l.dir)
	if err == nil && statErr != nil {
		err = syncDir(filepath.Dir(l.dir))
	}
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	return f, nil
}

// wholeLines returns the size of a log of size bytes up to its last
// newline: what is left when a line a crash tore is cut off.
func wholeLines(f *os.File, size int64) (int64, error) {
	var buf [4096]byte
	for end := size; end > 0; {
		n := min(end, int64(len(buf)))
		if end == size {
			n = 1 // the common case: the log ends with a newline
		}
		chunk := buf[:n]
		if _, err := f.ReadAt(chunk, end-n); err != nil {
			return size, err
		}
		if i := bytes.LastIndexByte(chunk, '\n'); i >= 0 {
			return end - n + int64(i) + 1, nil
		}
		end -= n
	}
	return 0, nil
}

// rewrite replaces the log with its live lines, in log order, holding
// up batches only for its last step. Without the log's lock, it indexes
// the log's whole lines as of its start (indexGroups), copies the live
// ones run by run to a temp file and fsyncs it; then, under the lock, it
// copies after them the lines batches appended meanwhile (a tombstone
// among them still follows the lines it drops), fsyncs the temp file
// again, renames it over the log and fsyncs the directory. Lines of
// other Stores are live like this one's. It leaves the counts of the
// file it wrote for the next batch, and returns them. A log another
// Store replaced meanwhile is left as that Store wrote it. No more of
// the log is held than a buffer.
func (l *sweepLog) rewrite() (logAcct, error) {
	old, err := os.Open(l.path)
	if err != nil {
		return logAcct{}, err
	}
	defer old.Close() // releases its lock
	fi, ok, err := lockCurrent(old, l.path, syscall.LOCK_SH)
	if !ok {
		return logAcct{}, err
	}
	end, err := wholeLines(old, fi.Size())
	_ = flock(old, syscall.LOCK_UN)
	if err != nil {
		return logAcct{}, err
	}
	groups, _, err := indexGroups(old, end)
	if err != nil {
		return logAcct{}, err
	}
	acct := logAcct{sizes: make(map[string]int64, len(groups))}
	var lines []logLine
	for _, g := range groups {
		lines = append(lines, g.lines...)
		acct.add(g.id, g.size, false)
	}
	slices.SortFunc(lines, func(a, b logLine) int { return a.start - b.start })
	tmp, err := os.CreateTemp(l.dir, "."+logName+".tmp-*")
	if err != nil {
		return logAcct{}, err
	}
	renamed := false
	defer func() {
		_ = tmp.Close()
		if !renamed {
			_ = os.Remove(tmp.Name())
		}
	}()
	bw := bufio.NewWriterSize(tmp, 64<<10)
	for k := 0; k < len(lines) && err == nil; {
		lo := lines[k].start
		for k++; k < len(lines) && lines[k].start == lines[k-1].end; k++ {
		}
		_, err = io.Copy(bw, io.NewSectionReader(old, int64(lo), int64(lines[k-1].end-lo)))
	}
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = tmp.Sync()
	}
	if err != nil {
		return logAcct{}, err
	}

	if fi, ok, err = lockCurrent(old, l.path, syscall.LOCK_EX); !ok {
		return logAcct{}, err
	}
	tailEnd, err := wholeLines(old, fi.Size())
	var tail []rawLine
	if err == nil {
		tail, err = indexLog(io.NewSectionReader(old, end, tailEnd-end), tailEnd-end, logWindow)
	}
	if err == nil {
		_, err = io.Copy(bw, io.NewSectionReader(old, end, tailEnd-end))
	}
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = tmp.Sync()
	}
	if err == nil {
		acct.fi, err = tmp.Stat()
	}
	if err != nil {
		return logAcct{}, err
	}
	for _, ln := range tail {
		acct.add(ln.id, int64(ln.n), ln.tomb)
	}
	if err := os.Rename(tmp.Name(), l.path); err != nil {
		return logAcct{}, err
	}
	renamed = true
	l.mu.Lock()
	l.counted = &acct
	l.rewrites++
	l.mu.Unlock()
	return acct, syncDir(l.dir)
}

// rawLine is a line of a log: its offset and length, its sweep id (""
// when it has no valid one), whether it is a tombstone, and the piece
// the scan read it in (scanLog).
type rawLine struct {
	off, n int
	id     string
	tomb   bool
	piece  int
}

// logPiece is whole lines of a log in memory: b holds the log's bytes
// from off.
type logPiece struct {
	off int
	b   []byte
}

// readPiece reads the lines of r's size bytes that start in [lo, hi):
// from the first line that starts at or after lo (lo-1 is read to tell)
// through the newline of the last one, read on past hi as far as it
// runs. A torn last line (no newline) is left out. It reads into buf
// when buf has room, and returns the buffer it read into.
func readPiece(r io.ReaderAt, size int64, lo, hi int, buf []byte) (logPiece, []byte, error) {
	from := max(lo-1, 0)
	if n := hi - from; cap(buf) < n+min(n, 4<<10) {
		buf = make([]byte, n, n+min(n, 4<<10)) // room to read on to a line's end
	}
	b := buf[:hi-from]
	if err := readAt(r, b, from); err != nil {
		return logPiece{}, buf, err
	}
	start := 0
	if lo > 0 {
		if start = bytes.IndexByte(b, '\n') + 1; start == 0 {
			start = len(b) // the piece is all inside a line that started before it
		}
	}
	for step := 4 << 10; start < len(b) && b[len(b)-1] != '\n'; step *= 2 {
		end := from + len(b)
		if int64(end) == size { // a torn last line
			b = b[:bytes.LastIndexByte(b, '\n')+1]
			break
		}
		n := int(min(int64(step), size-int64(end)))
		b = slices.Grow(b, n)[:len(b)+n]
		if err := readAt(r, b[len(b)-n:], end); err != nil {
			return logPiece{}, b, err
		}
		if k := bytes.IndexByte(b[len(b)-n:], '\n'); k >= 0 {
			b = b[:len(b)-n+k+1]
		}
	}
	start = min(start, len(b))
	return logPiece{off: from + start, b: b[start:]}, b, nil
}

// readAt fills b from r at off.
func readAt(r io.ReaderAt, b []byte, off int) error {
	if n, err := r.ReadAt(b, int64(off)); n < len(b) {
		return cmp.Or(err, io.ErrUnexpectedEOF)
	}
	return nil
}

// lines splits p into its lines, each of piece i.
func (p logPiece) lines(i int) []rawLine {
	var lines []rawLine
	var prev string
	for off := 0; off < len(p.b); {
		n := bytes.IndexByte(p.b[off:], '\n') + 1
		ln := rawLine{off: p.off + off, n: n, piece: i}
		if ln.id, ln.tomb = parseLogLine(p.b[off:off+n], prev); ln.id != "" {
			prev = ln.id
		}
		lines = append(lines, ln)
		off += n
	}
	return lines
}

// logWindow is how much of the log indexLog holds at a time, unless a
// line is longer.
const logWindow = 64 << 10

// indexLog returns the lines of r's size bytes, read a window of window
// bytes (readPiece) at a time into one buffer. A torn last line is left
// out.
func indexLog(r io.ReaderAt, size int64, window int) ([]rawLine, error) {
	var lines []rawLine
	var buf []byte
	for off := 0; int64(off) < size; {
		var p logPiece
		var err error
		p, buf, err = readPiece(r, size, off, int(min(int64(off+window), size)), buf)
		if err != nil || len(p.b) == 0 {
			return lines, err
		}
		lines = append(lines, p.lines(0)...)
		off = p.off + len(p.b)
	}
	return lines, nil
}

// logLine is one log line: the offsets of its start, of its journal
// line (past the id and the space) and of its end (past the newline),
// and the piece the scan read it in.
type logLine struct{ start, body, end, piece int }

// logGroup is one sweep's lines in a log: those after its last
// tombstone.
type logGroup struct {
	id    string
	lines []logLine
	size  int64 // the bytes of its lines, ids included
	dead  bool
}

// indexGroups indexes r's size bytes by sweep id (indexLog,
// groupLines), holding no more of the log than a window of it.
func indexGroups(r io.ReaderAt, size int64) (groups []*logGroup, dead int64, err error) {
	lines, err := indexLog(r, size, logWindow)
	if err != nil {
		return nil, 0, err
	}
	groups, dead = groupLines([][]rawLine{lines})
	return groups, dead, nil
}

// groupLines groups a log's lines, given in log order, by sweep id: it
// returns each sweep's group, in the order of the group's first line,
// and counts as dead every byte that is in no group — tombstones and
// the lines before them, lines without a valid id and a space.
func groupLines(ranges [][]rawLine) (groups []*logGroup, dead int64) {
	byID := make(map[string]*logGroup)
	var g *logGroup // the group of the line before, while it is live
	n := 0
	for _, lines := range ranges {
		for _, ln := range lines {
			if g == nil || g.id != ln.id {
				g = byID[ln.id]
			}
			switch {
			case ln.id == "":
				dead += int64(ln.n)
			case ln.tomb:
				if g != nil {
					g.dead = true
					dead += g.size
					delete(byID, g.id)
					g = nil
					n--
				}
				dead += int64(ln.n)
			default:
				if g == nil {
					g = &logGroup{id: ln.id, lines: make([]logLine, 0, 4)}
					byID[g.id] = g
					groups = append(groups, g)
					n++
				}
				g.lines = append(g.lines, logLine{ln.off, ln.off + len(ln.id) + 1, ln.off + ln.n, ln.piece})
				g.size += int64(ln.n)
			}
		}
	}
	live := make([]*logGroup, 0, n)
	for _, g := range groups {
		if !g.dead {
			live = append(live, g)
		}
	}
	return live, dead
}

// parseLogLine reads a log line, newline included, for its sweep id
// and whether it is a tombstone. prev is the id of a line before it,
// returned in place of an equal new string.
func parseLogLine(line []byte, prev string) (id string, tomb bool) {
	idb, body, ok := bytes.Cut(line, space)
	if !ok || !validSweepID(idb) {
		return "", false
	}
	if id = prev; id != string(idb) {
		id = string(idb)
	}
	return id, len(body) == len(tombstone)+1 && bytes.HasPrefix(body, tombstone)
}

var space = []byte{' '}

// journal returns g's journal from the pieces of the log that hold its
// lines: compacted in place in its piece when its lines follow one
// another there (no other sweep's line comes between them), else copied
// out.
func (g *logGroup) journal(pieces []logPiece) []byte {
	first, last := g.lines[0], g.lines[len(g.lines)-1]
	if p := pieces[first.piece]; last.piece == first.piece && int64(last.end-first.start) == g.size {
		lines := make([]logLine, len(g.lines))
		for k, ln := range g.lines {
			lines[k] = logLine{ln.start - first.start, ln.body - first.start, ln.end - first.start, 0}
		}
		return compact(p.b[first.start-p.off:last.end-p.off], lines)
	}
	b := make([]byte, 0, g.size)
	lines := make([]logLine, len(g.lines)) // g's lines, at their place in b
	for k, ln := range g.lines {
		p := pieces[ln.piece]
		lines[k] = logLine{len(b), len(b) + ln.body - ln.start, len(b) + ln.end - ln.start, 0}
		b = append(b, p.b[ln.start-p.off:ln.end-p.off]...)
	}
	return compact(b, lines)
}

// load reads g's lines from r into one buffer and returns g's journal
// (compact).
func (g *logGroup) load(r io.ReaderAt) ([]byte, error) {
	b := make([]byte, g.size)
	lines := make([]logLine, 0, len(g.lines)) // g's lines, at their place in b
	w := 0
	for k := 0; k < len(g.lines); {
		run := k // lines that follow one another in the log: one read
		for k++; k < len(g.lines) && g.lines[k].start == g.lines[k-1].end; k++ {
		}
		lo, hi := g.lines[run].start, g.lines[k-1].end
		if _, err := r.ReadAt(b[w:w+hi-lo], int64(lo)); err != nil {
			return nil, err
		}
		for _, ln := range g.lines[run:k] {
			lines = append(lines, logLine{ln.start - lo + w, ln.body - lo + w, ln.end - lo + w, 0})
		}
		w += hi - lo
	}
	return compact(b, lines), nil
}

// compact returns the journal of lines, log lines that follow one
// another in b: their journal lines without the ids, compacted in place
// in b. It leaves the longest line — a payload, most of a journal's
// bytes — where it is: the lines before it move right, onto its id,
// and the lines after it move left.
func compact(b []byte, lines []logLine) []byte {
	anchor := 0
	for k, ln := range lines {
		if ln.end-ln.body > lines[anchor].end-lines[anchor].body {
			anchor = k
		}
	}
	start := lines[anchor].body
	for k := anchor - 1; k >= 0; k-- {
		ln := lines[k]
		start -= ln.end - ln.body
		copy(b[start:], b[ln.body:ln.end])
	}
	end := lines[anchor].end
	for _, ln := range lines[anchor+1:] {
		end += copy(b[end:], b[ln.body:ln.end])
	}
	return b[start:end:end]
}

// logScan is what scanLog reads of a log.
type logScan struct {
	entries []JournalEntry   // sweeps whose header decodes, oldest first
	corrupt []string         // sweeps whose header does not
	sizes   map[string]int64 // the bytes of each sweep's lines, corrupt ones included
	dead    int64
}

// scanPiece is how much of the log one goroutine of the scan reads and
// splits into lines.
const scanPiece = 256 << 10

// scanLog reads the sweeps of the log in r's size bytes. It reads the
// log in pieces of about piece bytes, each cut at line ends (readPiece),
// and splits them into lines on min(GOMAXPROCS, pieces) goroutines;
// groups the lines by sweep id (groupLines); then hands each live
// sweep's journal (logGroup.journal) to parseJournal on
// min(GOMAXPROCS, sweeps) goroutines. A sweep's journal is compacted in
// place in its piece when its lines follow one another there, and
// copied out only when other sweeps' lines, or a piece's end, come
// between them, so the scan holds little more than the log; the
// entries' payloads are slices of it. The entries come oldest first
// (manifest creation time, ties in log order).
func scanLog(r io.ReaderAt, size int64, piece int) (logScan, error) {
	pieces := make([]logPiece, (size+int64(piece)-1)/int64(piece))
	ranges := make([][]rawLine, len(pieces))
	errs := make([]error, len(pieces))
	parallelFor(len(pieces), func(i int) {
		lo := i * piece
		if pieces[i], _, errs[i] = readPiece(r, size, lo, int(min(int64(lo+piece), size)), nil); errs[i] == nil {
			ranges[i] = pieces[i].lines(i)
		}
	})
	if err := errors.Join(errs...); err != nil {
		return logScan{}, err
	}
	groups, dead := groupLines(ranges)
	read := make([]*JournalEntry, len(groups)) // nil: the header did not parse
	parallelFor(len(groups), func(i int) {
		read[i], _ = parseJournal(groups[i].journal(pieces))
	})
	sc := logScan{entries: make([]JournalEntry, 0, len(groups)), sizes: make(map[string]int64, len(groups)), dead: dead}
	for i, g := range groups {
		sc.sizes[g.id] = g.size
		if read[i] == nil {
			sc.corrupt = append(sc.corrupt, g.id)
			continue
		}
		sc.entries = append(sc.entries, *read[i])
	}
	sort.SliceStable(sc.entries, func(i, k int) bool {
		return sc.entries[i].Manifest.CreatedUnixNano < sc.entries[k].Manifest.CreatedUnixNano
	})
	return sc, nil
}

// shared calls fn with the log and its FileInfo under the log's shared
// lock, and reports whether there is a log. A log a rewrite replaces
// meanwhile is opened again.
func (l *sweepLog) shared(fn func(f *os.File, fi os.FileInfo) error) (bool, error) {
	for {
		f, err := os.Open(l.path)
		if errors.Is(err, os.ErrNotExist) {
			return false, nil
		}
		if err != nil {
			return false, err
		}
		done, err := func() (bool, error) {
			defer f.Close() // releases the lock
			if err := flock(f, syscall.LOCK_SH); err != nil {
				return true, err
			}
			fi, err := f.Stat()
			if err != nil {
				return true, err
			}
			if cur, err := os.Stat(l.path); err != nil || !os.SameFile(fi, cur) {
				return false, nil
			}
			return true, fn(f, fi)
		}()
		if done {
			return true, err
		}
	}
}

// groups indexes the log by sweep id (indexGroups) under its shared
// lock, calling fn with the file and its live groups.
func (l *sweepLog) groups(fn func(f *os.File, groups []*logGroup) error) error {
	_, err := l.shared(func(f *os.File, fi os.FileInfo) error {
		groups, _, err := indexGroups(f, fi.Size())
		if err == nil {
			err = fn(f, groups)
		}
		return err
	})
	return err
}

// journal returns sweep id's journal: its lines after its last
// tombstone, without their ids, read alone from the log. It returns nil
// when the log holds none.
func (l *sweepLog) journal(id string) (b []byte, err error) {
	err = l.groups(func(f *os.File, groups []*logGroup) error {
		if i := slices.IndexFunc(groups, func(g *logGroup) bool { return g.id == id }); i >= 0 {
			b, err = groups[i].load(f)
		}
		return err
	})
	return b, err
}

// adopt hands a scan's counts of the file fi, of size bytes, to the
// next batch.
func (l *sweepLog) adopt(fi os.FileInfo, size int64, sizes map[string]int64, dead int64) {
	l.mu.Lock()
	l.counted = &logAcct{fi: fi, size: size, live: size - dead, dead: dead, sizes: sizes}
	l.mu.Unlock()
}

func flock(f *os.File, how int) error {
	for {
		if err := syscall.Flock(int(f.Fd()), how); err != syscall.EINTR {
			return err
		}
	}
}

// syncDir fsyncs a directory, making the entries created or renamed in
// it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	return errors.Join(d.Sync(), d.Close())
}

// openLog readies the log at Open. It cuts a torn last line off an
// existing log, and moves the per-file journals an earlier build wrote
// into the log (migrateJournals). A directory without either is left
// untouched: no file is created and nothing fsynced. Open does not fail
// on its error: journaling degrades as on any failed journal write, and
// a per-file journal not moved stays in place for the next Open.
func (s *Store) openLog() error {
	l := s.log
	files, err := os.ReadDir(l.dir)
	if errors.Is(err, os.ErrNotExist) || errors.Is(err, syscall.ENOTDIR) {
		return nil
	}
	if err != nil {
		return err
	}
	var journals []string
	hasLog := false
	for _, f := range files {
		name := f.Name()
		if f.IsDir() {
			continue
		}
		if name == logName {
			hasLog = true
		}
		if id, ok := strings.CutSuffix(name, journalSuffix); ok && ValidSweepID(id) {
			journals = append(journals, name)
		}
	}
	if !hasLog && len(journals) == 0 {
		return nil
	}
	size, err := l.lock(len(journals) > 0)
	if err != nil {
		return err
	}
	defer l.unlock()
	if l.fi.Size() != size {
		err = l.f.Sync() // a torn line was cut
	}
	if err == nil && len(journals) > 0 {
		err = s.migrateJournals(size, journals)
	}
	return err
}

// migrateJournals moves the per-file journals names, in name order,
// into the log of size bytes, locked by the caller, then removes them.
// Only the lines the file's scan read move (movedLines); a journal whose
// header does not decode is quarantined as before. A journal whose
// sweep the log already holds — moved before a crash cut the move
// short — is only removed. A journal that cannot be read stays in
// place, and the others move.
func (s *Store) migrateJournals(size int64, names []string) error {
	l := s.log
	groups, _, err := indexGroups(l.f, size)
	if err != nil {
		return err
	}
	held := make(map[string]bool, len(groups))
	for _, g := range groups {
		held[g.id] = true
	}
	var buf []byte
	var errs []error
	done := names[:0:0] // the journals moved, held or quarantined
	for _, name := range names {
		id, path := strings.TrimSuffix(name, journalSuffix), filepath.Join(l.dir, name)
		if held[id] {
			done = append(done, name)
			continue
		}
		b, err := os.ReadFile(path)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			errs = append(errs, err)
			continue
		}
		moved, err := movedLines(b)
		if err != nil {
			s.mu.Lock()
			s.quarantine(path)
			s.corrupt++
			s.mu.Unlock()
			continue
		}
		for len(moved) > 0 {
			var line []byte
			line, moved, _ = bytes.Cut(moved, newline)
			buf = appendLogLine(buf, id, line)
		}
		done = append(done, name)
	}
	if len(buf) > 0 {
		_, err := l.f.WriteAt(buf, size)
		if err == nil {
			err = l.f.Sync()
		}
		if err != nil {
			_ = l.f.Truncate(size)
			return errors.Join(append(errs, err)...)
		}
	}
	for _, name := range done {
		if err := os.Remove(filepath.Join(l.dir, name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			errs = append(errs, err)
		}
	}
	return errors.Join(append(errs, syncDir(l.dir))...)
}

// movedLines returns the lines of a per-file journal that its scan
// (parseJournal) reads, each ending in a newline: the header and the
// payload line; the record lines before the first line the record loop
// stops at; and the end line the scan took the disposition from, if
// any. parseJournal reads them as it read the file: the same manifest,
// payload, records, disposition and tally. An end line read by the
// record loop that carries a tally fitting the header, and that the
// file did not end with, moves without its tally, so that it is read
// by the loop again. It fails as parseJournal does, on a header that
// does not decode.
func movedLines(b []byte) ([]byte, error) {
	e, rest, err := parseHeader(b)
	if err != nil {
		return nil, err
	}
	hashes := e.Manifest.ScenarioHashes
	out := terminated(nil, b[:len(b)-len(rest)])
	body := bytes.TrimSuffix(rest, newline)
	cut := bytes.LastIndexByte(body, '\n') + 1
	var last journalLine
	if decodeLine(body[cut:], &last) == nil && last.Type == "end" && last.Tally.fits(len(hashes)) {
		_, _, n := scanRecords(rest[:cut], hashes)
		out = append(out, rest[:n]...)
		return terminated(out, body[cut:]), nil
	}
	_, disposition, n := scanRecords(rest, hashes)
	out = terminated(out, rest[:n])
	if disposition == "" {
		return out, nil
	}
	end, _, _ := bytes.Cut(rest[n:], newline)
	var l journalLine
	if decodeLine(end, &l) == nil && l.Tally.fits(len(hashes)) {
		l.Tally = nil
		if end, err = json.Marshal(l); err != nil {
			return nil, err
		}
	}
	return terminated(out, end), nil
}

// terminated appends lines to out, ending them with a newline if they
// do not end with one.
func terminated(out, lines []byte) []byte {
	out = append(out, lines...)
	if len(lines) > 0 && lines[len(lines)-1] != '\n' {
		out = append(out, '\n')
	}
	return out
}
