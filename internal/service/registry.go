package service

import (
	"context"
	"sync"
	"time"
)

// lifecycle is the identity, cancellation and change broadcast that a
// sweep and a study share. Its mu also guards the embedding job's own
// mutable state, so update can mutate that state and wake every stream
// waiting on changed in one critical section.
type lifecycle struct {
	id        string
	name      string
	specHash  string
	createdAt time.Time
	cancel    context.CancelFunc
	done      chan struct{} // closed once the job is terminal

	mu     sync.Mutex
	notify chan struct{} // closed and replaced on every state change
}

func newLifecycle(name, specHash string, cancel context.CancelFunc) lifecycle {
	return lifecycle{
		name:      name,
		specHash:  specHash,
		createdAt: time.Now(),
		cancel:    cancel,
		done:      make(chan struct{}),
		notify:    make(chan struct{}),
	}
}

// ID returns the identifier.
func (l *lifecycle) ID() string { return l.id }

// Cancel aborts the job. A sweep's queued scenarios become cancelled and
// its running simulations stop at their next tick boundary (mid-day); a
// study's in-flight generation sweep is cancelled and its driver stops
// at the next batch boundary. Safe to call repeatedly.
func (l *lifecycle) Cancel() { l.cancel() }

// Done returns a channel closed once the job reaches a terminal state.
func (l *lifecycle) Done() <-chan struct{} { return l.done }

// Wait blocks until the job finishes or ctx expires.
func (l *lifecycle) Wait(ctx context.Context) error {
	select {
	case <-l.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// changed returns a channel closed at the next state change — the
// broadcast primitive behind the streaming endpoints.
func (l *lifecycle) changed() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.notify
}

func (l *lifecycle) update(mutate func()) {
	l.mu.Lock()
	mutate()
	close(l.notify)
	l.notify = make(chan struct{})
	l.mu.Unlock()
}

// tracked is what the registry needs of a sweep or a study.
type tracked interface {
	ID() string
	Cancel()
	Done() <-chan struct{}
}

// registry is the bounded id → job map behind the sweep and study
// listings: submission order, idempotency-key binding, and retention
// pruning of the oldest finished jobs, so a long-running server's
// memory (and the results each job pins) stays bounded.
type registry[T tracked] struct {
	mu    sync.Mutex
	max   int
	items map[string]T
	order []registered      // submission order
	keys  map[string]string // idempotency key → id
}

type registered struct{ id, key string }

func newRegistry[T tracked](max int) *registry[T] {
	return &registry[T]{max: max, items: make(map[string]T), keys: make(map[string]string)}
}

func (r *registry[T]) get(id string) (T, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.items[id]
	return v, ok
}

// byKey resolves an idempotency key to the job bound to it. The empty
// key is never bound.
func (r *registry[T]) byKey(key string) (T, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.items[r.keys[key]]
	return v, ok
}

// add registers item unless its id is taken or key (when non-empty) is
// already bound, returning whether it did and, when not, the job holding
// that id or key. A registration prunes the oldest finished jobs beyond
// the bound and returns them, so the caller releases their side state
// (journals) outside this lock.
func (r *registry[T]) add(item T, key string) (holder T, added bool, pruned []T) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.items[item.ID()]; ok {
		return v, false, nil
	}
	if v, ok := r.items[r.keys[key]]; ok {
		return v, false, nil
	}
	r.items[item.ID()] = item
	r.order = append(r.order, registered{item.ID(), key})
	if key != "" {
		r.keys[key] = item.ID()
	}
	excess := len(r.order) - r.max
	if excess <= 0 {
		return holder, true, nil
	}
	kept := r.order[:0]
	for _, e := range r.order {
		if v := r.items[e.id]; excess > 0 && finished(v) {
			r.dropLocked(e)
			pruned = append(pruned, v)
			excess--
			continue
		}
		kept = append(kept, e)
	}
	r.order = kept
	return holder, true, pruned
}

// remove drops id, reporting whether it was registered.
func (r *registry[T]) remove(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, e := range r.order {
		if e.id == id {
			r.dropLocked(e)
			r.order = append(r.order[:i], r.order[i+1:]...)
			return true
		}
	}
	return false
}

func (r *registry[T]) dropLocked(e registered) {
	delete(r.items, e.id)
	delete(r.keys, e.key) // e.key is "" or the key this job bound
}

// list snapshots every registered job in submission order.
func (r *registry[T]) list() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]T, len(r.order))
	for i, e := range r.order {
		out[i] = r.items[e.id]
	}
	return out
}

func (r *registry[T]) cancelAll() {
	for _, v := range r.list() {
		v.Cancel()
	}
}

// wait blocks until every registered job is terminal or ctx expires.
func (r *registry[T]) wait(ctx context.Context) error {
	for _, v := range r.list() {
		select {
		case <-v.Done():
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

func finished(j tracked) bool {
	select {
	case <-j.Done():
		return true
	default:
		return false
	}
}
