package sweep

import (
	"container/list"
	"sync"
)

// planCache is a mutex-guarded LRU of compiled plans keyed by design
// fingerprint. Compilation is cheap next to a solve but not free (one pass
// over every equation plus set interning); a server re-sweeping a rotating
// population of designs should pay it once per design, not once per batch.
type planCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recently used; values are *Plan
	entries map[uint64]*list.Element
}

func newPlanCache(capacity int) *planCache {
	return &planCache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[uint64]*list.Element),
	}
}

// get returns the cached plan for fp (marking it most recently used), or
// nil.
func (c *planCache) get(fp uint64) *Plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[fp]
	if !ok {
		return nil
	}
	c.order.MoveToFront(el)
	return el.Value.(*Plan)
}

// put inserts p, evicting the least recently used plan beyond capacity.
func (c *planCache) put(p *Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[p.Fingerprint]; ok {
		el.Value = p
		c.order.MoveToFront(el)
		return
	}
	c.entries[p.Fingerprint] = c.order.PushFront(p)
	for c.order.Len() > c.cap {
		el := c.order.Back()
		c.order.Remove(el)
		delete(c.entries, el.Value.(*Plan).Fingerprint)
	}
}

// remove drops the plan cached for fp, if any.
func (c *planCache) remove(fp uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[fp]; ok {
		c.order.Remove(el)
		delete(c.entries, fp)
	}
}

// len reports the number of cached plans.
func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
