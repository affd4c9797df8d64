// Bounded LRU cache, singleflight group, and admission-bounded worker pool:
// the three concurrency primitives behind the service. All are dependency-
// free so the serving layer stays inside the standard library.
package serve

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// lruCache is a mutex-guarded LRU map with a fixed entry capacity. Values
// are immutable once inserted (the pipeline caches parsed programs, traces,
// simulation results and marshaled response bytes — none are ever mutated
// after publication), so readers share them without copying.
type lruCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used; values are *lruEntry
	items map[string]*list.Element

	// label names the cache in its metrics and prefixes its flights' keys;
	// hits, misses and evictions are its counters' names, formatted once.
	label                   string
	hits, misses, evictions string
}

type lruEntry struct {
	key string
	val any
}

func newLRU(label string, capacity int) *lruCache {
	return &lruCache{
		cap:       capacity,
		order:     list.New(),
		items:     make(map[string]*list.Element),
		label:     label,
		hits:      fmt.Sprintf("cache_hits_total{cache=%q}", label),
		misses:    fmt.Sprintf("cache_misses_total{cache=%q}", label),
		evictions: fmt.Sprintf("cache_evictions_total{cache=%q}", label),
	}
}

func (c *lruCache) get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.touch(c.items[key])
}

// getBytes is get with the key in bytes, for a caller that builds it in a
// stack array: a map index converts it without allocating.
func (c *lruCache) getBytes(key []byte) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.touch(c.items[string(key)])
}

// touch moves a found entry to the front and returns its value; el is nil
// when the key was not found. c.mu is held.
func (c *lruCache) touch(el *list.Element) (any, bool) {
	if el == nil {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// put inserts or refreshes key and reports whether that evicted the least
// recently used entry.
func (c *lruCache) put(key string, val any) (evicted bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).val = val
		c.order.MoveToFront(el)
		return false
	}
	c.items[key] = c.order.PushFront(&lruEntry{key: key, val: val})
	if c.order.Len() <= c.cap {
		return false
	}
	last := c.order.Back()
	c.order.Remove(last)
	delete(c.items, last.Value.(*lruEntry).key)
	return true
}

func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// flightGroup collapses concurrent calls with the same key into one
// execution: the first caller (the leader) runs fn, everyone else blocks on
// the leader's result and shares it. Completed flights are forgotten, so a
// later identical call runs again (evaluator.cached puts a cache in front of
// the group, published by the leader inside fn, to make that cheap).
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	val  any
	err  error
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: make(map[string]*flightCall)}
}

// do returns fn's result and whether this caller shared a leader's
// execution rather than running fn itself.
func (g *flightGroup) do(key string, fn func() (any, error)) (val any, shared bool, err error) {
	g.mu.Lock()
	if call, ok := g.m[key]; ok {
		g.mu.Unlock()
		<-call.done
		return call.val, true, call.err
	}
	call := &flightCall{done: make(chan struct{}), err: errLeaderPanicked}
	g.m[key] = call
	g.mu.Unlock()

	// Completed in a defer: a leader whose fn panics must still release its
	// followers (they get the error the call was born with) and forget the
	// key, or every later call with it would wait forever. The panic itself
	// continues up the leader's stack.
	defer func() {
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(call.done)
	}()
	call.val, call.err = fn()
	return call.val, false, call.err
}

// errLeaderPanicked is what a flight's followers get when its leader's fn
// panicked instead of returning.
var errLeaderPanicked = errors.New("serve: the execution this request was waiting on panicked")

// errBusy is returned by pool.acquire when the wait queue is at its bound;
// the HTTP layer maps it to 429 + Retry-After. Backpressure is explicit and
// immediate — the server never buffers unbounded work.
var errBusy = errors.New("serve: queue full")

// pool is an admission-bounded worker pool: at most `workers` heavy pipeline
// computations run at once, at most `maxQueue` more may wait for a slot, and
// anything beyond that is rejected with errBusy on arrival.
type pool struct {
	sem      chan struct{}
	waiters  atomic.Int64
	maxQueue int64
}

func newPool(workers, maxQueue int) *pool {
	if workers <= 0 {
		workers = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &pool{sem: make(chan struct{}, workers), maxQueue: int64(maxQueue)}
}

// acquire takes a worker slot, waiting in the bounded queue if all slots are
// busy. It fails fast with errBusy when the queue bound is hit and with the
// context's error if the caller's deadline expires while queued.
func (p *pool) acquire(ctx context.Context) error {
	select {
	case p.sem <- struct{}{}:
		return nil
	default:
	}
	if p.waiters.Add(1) > p.maxQueue {
		p.waiters.Add(-1)
		return errBusy
	}
	defer p.waiters.Add(-1)
	select {
	case p.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (p *pool) release() { <-p.sem }

// depth reports how many callers are currently waiting for a slot.
func (p *pool) depth() int64 { return p.waiters.Load() }

// busy reports how many slots are currently held.
func (p *pool) busy() int64 { return int64(len(p.sem)) }
