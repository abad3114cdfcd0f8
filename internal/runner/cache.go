package runner

import (
	"sort"
	"sync"
	"sync/atomic"

	"catsim/internal/sim"
)

// Cache memoizes sim.Run results by the canonical config key
// (sim.CacheKey). Concurrent requests for the same key are single-flight:
// exactly one executes, the rest block on it — which is what guarantees
// every shared KindNone baseline runs once per (workload, threshold,
// seed) no matter how many paired cells, figures or workers want it.
// Safe for concurrent use; share one Cache across figures to deduplicate
// a whole reproduction.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	hits    atomic.Int64
}

type cacheEntry struct {
	once sync.Once
	res  sim.Result
	err  error
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{entries: map[string]*cacheEntry{}}
}

// Run returns the memoized result for cfg, executing sim.Run at most once
// per canonical key.
func (c *Cache) Run(cfg sim.Config) (sim.Result, error) {
	return c.RunWith(cfg, sim.Run)
}

// RunWith is Run with an injected executor — the hook the runner Engine
// uses to route cache misses through a pooled run context. run executes
// at most once per canonical key regardless of which executor the
// winning caller supplied.
func (c *Cache) RunWith(cfg sim.Config, run func(sim.Config) (sim.Result, error)) (sim.Result, error) {
	key := sim.CacheKey(cfg)
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	}
	e.once.Do(func() {
		e.res, e.err = run(cfg)
	})
	if e.err != nil {
		return sim.Result{}, e.err
	}
	// The entry is shared across callers: hand out private copies of the
	// mutable fields so consumers can't corrupt each other.
	return e.res.Clone(), nil
}

// Hits reports how many Run calls were served from an existing entry
// (including calls that blocked on an in-flight execution).
func (c *Cache) Hits() int64 { return c.hits.Load() }

// Runs returns the canonical keys of every simulation the cache has
// executed (or started executing), sorted. Each key is prefixed with the
// scheme label, so tests can count e.g. baseline executions by the
// "None|" prefix.
func (c *Cache) Runs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, len(c.entries))
	for k := range c.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
