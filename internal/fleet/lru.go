package fleet

import (
	"container/list"
	"sync"
)

// LRU is a small thread-safe least-recently-used cache. The fleet uses it
// for synthesized device profiles (rebuild on miss is deterministic, so
// eviction only costs time), displayed scene frames shared across devices,
// and per-worker backend replicas keyed by runtime variant.
type LRU[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recent; values are *lruEntry[K,V]
	items    map[K]*list.Element
	// pending holds the computations GetOrCompute is running, by key.
	pending map[K]*lruFlight[V]
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

// lruFlight is one running GetOrCompute computation; done closes once val
// is set (ok) or the computation panicked (!ok).
type lruFlight[V any] struct {
	done chan struct{}
	val  V
	ok   bool
}

// NewLRU returns a cache holding at most capacity entries (minimum 1).
func NewLRU[K comparable, V any](capacity int) *LRU[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &LRU[K, V]{capacity: capacity, order: list.New(), items: map[K]*list.Element{}, pending: map[K]*lruFlight[V]{}}
}

// Get returns the cached value and marks it most recently used.
func (c *LRU[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*lruEntry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Put inserts or refreshes a value, evicting the least recently used entry
// when over capacity.
func (c *LRU[K, V]) Put(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(k, v)
}

// putLocked is Put for callers holding c.mu.
func (c *LRU[K, V]) putLocked(k K, v V) {
	if el, ok := c.items[k]; ok {
		el.Value.(*lruEntry[K, V]).val = v
		c.order.MoveToFront(el)
		return
	}
	c.items[k] = c.order.PushFront(&lruEntry[K, V]{key: k, val: v})
	if c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry[K, V]).key)
	}
}

// GetOrCompute returns the cached value, computing and inserting it on a
// miss. The computation runs outside the lock, once per key: a miss that
// finds the key already being computed waits for that computation and
// returns its value, so concurrent first requests share one instance and
// pay for one computation. If the computation panics, its waiters retry.
func (c *LRU[K, V]) GetOrCompute(k K, compute func() V) V {
	for {
		c.mu.Lock()
		if el, ok := c.items[k]; ok {
			c.order.MoveToFront(el)
			c.mu.Unlock()
			return el.Value.(*lruEntry[K, V]).val
		}
		f, running := c.pending[k]
		if !running {
			f = &lruFlight[V]{done: make(chan struct{})}
			c.pending[k] = f
		}
		c.mu.Unlock()
		if !running {
			return c.fill(k, f, compute)
		}
		if <-f.done; f.ok {
			return f.val
		}
	}
}

// fill runs one key's computation for GetOrCompute, stores the value and
// releases the key's waiters — also when compute panics, so none hangs.
func (c *LRU[K, V]) fill(k K, f *lruFlight[V], compute func() V) V {
	defer func() {
		c.mu.Lock()
		delete(c.pending, k)
		if f.ok {
			c.putLocked(k, f.val)
		}
		c.mu.Unlock()
		close(f.done)
	}()
	f.val = compute()
	f.ok = true
	return f.val
}

// Len returns the current entry count.
func (c *LRU[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
