package store

// Cross-node single-flight leases. When several `exadigit serve`
// processes share one store directory (a coordinator plus its workers,
// or two coordinators on a shared filesystem), the in-memory
// single-flight of each service no longer prevents two nodes from
// simulating the same (spec, scenario) key. A lease is a small advisory
// file next to the entry — dir/<spec>/<scen>.lease — claimed before a
// node computes a key and released after the result is persisted, so
// every other node waits (polling the store for the holder's Put)
// instead of duplicating the work.
//
// Leases are time-bounded, not locks: a holder that dies mid-compute
// stops renewing, its lease expires after the TTL, and any waiter
// steals it and computes. Stealing is made single-winner by renaming
// the expired lease file to a unique tombstone first — rename of a
// missing file fails, so exactly one stealer proceeds to re-create the
// lease with O_EXCL. The guarantee is therefore "at most one live
// holder per key at a time, modulo clock skew and holders paused past
// their TTL"; a violated lease degrades to a duplicate compute (both
// results are bit-identical and Puts are atomic), never to corruption.

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"
)

// ErrLeaseHeld reports that another live owner holds the key's lease.
// Callers typically poll the store for the holder's result and retry.
var ErrLeaseHeld = errors.New("store: lease held")

// leaseSuffix names lease files; they sit next to the entry they guard
// and are ignored by the entry index scan (which only reads .ndjson).
const leaseSuffix = ".lease"

// staleLeaseAge is how long past expiry a lease file must be before the
// startup sweep removes it. Live stealers handle expired leases
// themselves; the sweep only collects long-dead junk, and the generous
// margin makes it impossible to collide with a freshly re-written lease.
const staleLeaseAge = time.Hour

// leaseRecord is the on-disk lease content.
type leaseRecord struct {
	Owner string `json:"owner"`
	// ExpiresUnixNano is the wall-clock expiry. Nodes sharing a store are
	// assumed to have clocks within the TTL's order of magnitude (NTP
	// class skew); the TTL should be sized for the worst-case scenario
	// compute plus that skew.
	ExpiresUnixNano int64 `json:"expires_unix_nano"`
}

func (r leaseRecord) expired(now time.Time) bool {
	return now.UnixNano() >= r.ExpiresUnixNano
}

// Lease is a held lease on one (spec hash, scenario hash) key. Release
// it after the result is durably Put; Renew it periodically (every
// TTL/3 is customary) while a long compute is in flight.
type Lease struct {
	s     *Store
	path  string
	owner string
}

// Holder identifies a lease's current owner to a refused acquirer.
type Holder struct {
	Owner   string
	Expires time.Time
}

// AcquireLease claims the lease for (specHash, scenHash) on behalf of
// owner for ttl. It returns ErrLeaseHeld (wrapped with the holder's
// identity) when another live owner holds it; an expired or unreadable
// lease is stolen. Re-acquiring a key this owner already holds renews
// it. The call never blocks on another holder.
func (s *Store) AcquireLease(specHash, scenHash, owner string, ttl time.Duration) (*Lease, error) {
	if !validKey(specHash) || !validKey(scenHash) {
		return nil, fmt.Errorf("store: lease: invalid key %q/%q", specHash, scenHash)
	}
	if owner == "" || ttl <= 0 {
		return nil, fmt.Errorf("store: lease: owner and ttl required")
	}
	if err := os.MkdirAll(specDirOf(s.dir, specHash), 0o755); err != nil {
		return nil, fmt.Errorf("store: lease: %w", err)
	}
	// Serialize same-process acquirers. The file protocol alone cannot
	// close the window between tombstoning an expired lease and
	// re-creating the fresh one: a second stealer that read the expired
	// record before the rename can tombstone the *fresh* lease and win a
	// second time. In-process that window is closed here; across
	// processes the guarantee stays "at most one live holder, modulo
	// clock skew" as documented above.
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	path := s.EntryPath(specHash, scenHash) + leaseSuffix
	for {
		created, err := writeLeaseExcl(path, owner, ttl)
		if err != nil {
			return nil, err
		}
		if created {
			s.mu.Lock()
			s.leaseAcquired++
			s.mu.Unlock()
			return &Lease{s: s, path: path, owner: owner}, nil
		}
		rec, rerr := readLease(path)
		now := time.Now()
		switch {
		case rerr == nil && rec.Owner == owner:
			// Re-entrant acquire: refresh our own lease in place.
			l := &Lease{s: s, path: path, owner: owner}
			if err := l.Renew(ttl); err != nil {
				return nil, err
			}
			return l, nil
		case rerr == nil && !rec.expired(now):
			s.mu.Lock()
			s.leaseWaits++
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: %s/%s by %s until %s", ErrLeaseHeld,
				specHash, scenHash, rec.Owner,
				time.Unix(0, rec.ExpiresUnixNano).Format(time.RFC3339))
		default:
			// Expired or unreadable: steal. Renaming to a unique tombstone
			// is the atomic claim — of N concurrent stealers exactly one
			// rename succeeds; the losers see ENOENT and loop back to the
			// O_EXCL create race.
			tomb, terr := tombstoneName(path)
			if terr != nil {
				return nil, terr
			}
			if err := os.Rename(path, tomb); err != nil {
				if os.IsNotExist(err) {
					continue
				}
				return nil, fmt.Errorf("store: lease steal: %w", err)
			}
			_ = os.Remove(tomb)
			s.mu.Lock()
			s.leaseSteals++
			s.mu.Unlock()
		}
	}
}

// Renew extends the lease by ttl from now. It fails if the lease file
// no longer names this owner — the holder overran its TTL and the lease
// was stolen — in which case the holder's result is still publishable
// (Puts are atomic and idempotent) but it should stop renewing.
func (l *Lease) Renew(ttl time.Duration) error {
	rec, err := readLease(l.path)
	if err != nil || rec.Owner != l.owner {
		return fmt.Errorf("store: lease lost by %s (stolen or removed)", l.owner)
	}
	return overwriteLease(l.path, l.owner, ttl)
}

// Release removes the lease if this owner still holds it. Safe to call
// after a failed Renew or on an already-stolen lease (it never removes
// another owner's lease).
func (l *Lease) Release() {
	rec, err := readLease(l.path)
	if err != nil || rec.Owner != l.owner {
		return
	}
	_ = os.Remove(l.path)
}

// writeLeaseExcl atomically creates the lease file, returning false (no
// error) when it already exists. The record is fully written and synced
// to a unique temp file first, then hard-linked into place — link fails
// with EEXIST when the path exists, giving O_EXCL semantics without the
// torn window of create-then-write (a concurrent reader must never see
// an empty lease and mistake it for stealable junk).
func writeLeaseExcl(path, owner string, ttl time.Duration) (bool, error) {
	tmp, err := tombstoneName(path)
	if err != nil {
		return false, err
	}
	data, err := json.Marshal(leaseRecord{Owner: owner, ExpiresUnixNano: time.Now().Add(ttl).UnixNano()})
	if err != nil {
		return false, fmt.Errorf("store: lease: %w", err)
	}
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return false, fmt.Errorf("store: lease: %w", err)
	}
	defer os.Remove(tmp)
	if err := os.Link(tmp, path); err != nil {
		if os.IsExist(err) {
			return false, nil
		}
		return false, fmt.Errorf("store: lease: %w", err)
	}
	return true, nil
}

// overwriteLease atomically replaces the lease content (temp + rename)
// — the renewal write, which must never leave a torn record behind.
func overwriteLease(path, owner string, ttl time.Duration) error {
	tmp, err := tombstoneName(path)
	if err != nil {
		return err
	}
	data, err := json.Marshal(leaseRecord{Owner: owner, ExpiresUnixNano: time.Now().Add(ttl).UnixNano()})
	if err != nil {
		return fmt.Errorf("store: lease renew: %w", err)
	}
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("store: lease renew: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("store: lease renew: %w", err)
	}
	return nil
}

func readLease(path string) (leaseRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return leaseRecord{}, err
	}
	return parseLease(data)
}

// parseLease decodes a lease file's content; a record without an owner
// is rejected, so an accepted lease always names its holder.
func parseLease(data []byte) (leaseRecord, error) {
	var rec leaseRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return rec, err
	}
	if rec.Owner == "" {
		return rec, errors.New("store: lease: empty owner")
	}
	return rec, nil
}

// tombstoneName derives a unique sibling name for steal/renew renames.
// The random suffix keeps concurrent stealers from colliding on the
// tombstone itself; the leading dot keeps it out of every scan.
func tombstoneName(path string) (string, error) {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("store: lease: %w", err)
	}
	return path + ".tomb-" + hex.EncodeToString(b[:]), nil
}
