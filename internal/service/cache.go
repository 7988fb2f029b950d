package service

import (
	"sync"

	"exadigit/internal/core"
	"exadigit/internal/obs"
)

// cacheEntry is one in-flight or completed scenario result. done is
// closed once res/err are final; bytes is the entry's approximate
// resident size, fixed at completion.
type cacheEntry struct {
	done  chan struct{}
	res   *core.Result
	err   error
	bytes int64
}

// resultCache is the content-addressed result store with single-flight
// semantics: the first acquirer of a key leads (simulates); concurrent
// acquirers wait on the same entry, so N identical submissions cost one
// simulation. It is bounded both by entry count and — the production
// bound — by approximate resident bytes, since one result can be a bare
// report or a multi-megabyte telemetry export.
type resultCache struct {
	mu        sync.Mutex
	cap       int
	maxBytes  int64
	bytes     int64 // Σ entry bytes over completed entries
	entries   map[string]*cacheEntry
	order     []string // completed keys, oldest first, for eviction
	evictions uint64   // completed entries dropped by the capacity bounds
}

func newResultCache(capacity int, maxBytes int64) *resultCache {
	return &resultCache{cap: capacity, maxBytes: maxBytes, entries: make(map[string]*cacheEntry)}
}

// register attaches the cache's occupancy and bounds to the registry.
func (c *resultCache) register(reg *obs.Registry) {
	reg.CounterFunc("exadigit_cache_evictions_total",
		"Completed results dropped by the cache capacity bounds.",
		func() float64 { return float64(c.stats().evictions) })
	reg.GaugeFunc("exadigit_cache_entries",
		"Live result-cache entries.",
		func() float64 { return float64(c.stats().entries) })
	reg.GaugeFunc("exadigit_cache_capacity_entries",
		"Entry-count bound the cache evicts against.",
		func() float64 { return float64(c.cap) })
	reg.GaugeFunc("exadigit_cache_bytes",
		"Approximate resident size of cached results.",
		func() float64 { return float64(c.stats().bytes) })
	reg.GaugeFunc("exadigit_cache_capacity_bytes",
		"Byte bound the cache evicts against.",
		func() float64 { return float64(c.maxBytes) })
}

// approxResultBytes estimates a result's resident size at insert time.
// It counts the dominant variable-size members — history samples and the
// exported telemetry's series points and per-job power traces — plus a
// fixed overhead for the report and bookkeeping. Precision is not the
// point; the estimate keeps eviction pressure proportional to what the
// cache actually pins.
func approxResultBytes(res *core.Result) int64 {
	const (
		base       = int64(2 << 10) // report, scenario copy, headers
		sampleSize = int64(14*8 + 2*24)
		pointSize  = int64(3*8 + 24)
		jobBase    = int64(256)
	)
	if res == nil {
		return base
	}
	n := base
	n += int64(len(res.History)) * sampleSize
	for i := range res.History {
		n += int64(len(res.History[i].CDUHeatW)+len(res.History[i].PartPowerW)) * 8
	}
	if d := res.Dataset; d != nil {
		n += int64(len(d.Series)) * pointSize
		for i := range d.Series {
			n += int64(len(d.Series[i].PartPowerW)) * 8
		}
		for i := range d.Jobs {
			n += jobBase + int64(len(d.Jobs[i].CPUPowerW)+len(d.Jobs[i].GPUPowerW))*8
		}
	}
	return n
}

// acquire returns the entry for key and whether the caller leads its
// computation.
func (c *resultCache) acquire(key string) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		return e, false
	}
	e := &cacheEntry{done: make(chan struct{})}
	c.entries[key] = e
	return e, true
}

// peek returns key's result when its entry is completed and successful,
// without taking leadership or waiting: a missing, in-flight or failed
// entry reports false.
func (c *resultCache) peek(key string) (*core.Result, bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	c.mu.Unlock()
	if !ok {
		return nil, false
	}
	select {
	case <-e.done:
		return e.res, e.err == nil
	default:
		return nil, false
	}
}

// complete publishes the leader's outcome. Failed and abandoned runs are
// dropped from the cache (a later submission may retry); successes are
// retained while they fit both the entry cap and the byte bound,
// evicting oldest-completed first (a result larger than the whole byte
// bound is published to its waiters but not retained).
func (c *resultCache) complete(key string, e *cacheEntry, res *core.Result, err error) {
	e.res, e.err = res, err
	c.mu.Lock()
	if err != nil {
		delete(c.entries, key)
	} else if e.bytes = approxResultBytes(res); e.bytes > c.maxBytes {
		// Larger than the whole byte bound: evicting every other entry
		// would not make it fit, so drop just this one instead of
		// flushing a warm cache.
		delete(c.entries, key)
		c.evictions++
	} else {
		c.bytes += e.bytes
		c.order = append(c.order, key)
		for len(c.order) > 0 && (len(c.order) > c.cap || c.bytes > c.maxBytes) {
			evict := c.order[0]
			c.order = c.order[1:]
			if old, ok := c.entries[evict]; ok {
				c.bytes -= old.bytes
				delete(c.entries, evict)
			}
			c.evictions++
		}
	}
	c.mu.Unlock()
	close(e.done)
}

// cacheStats is a point-in-time view of the cache's occupancy.
type cacheStats struct {
	evictions uint64
	entries   int
	bytes     int64
}

func (c *resultCache) stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{c.evictions, len(c.entries), c.bytes}
}
