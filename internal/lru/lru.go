// Package lru is the one bounded least-recently-used map the engine's
// caches share: llm.CacheModel (count-bounded, evicting on Put),
// llm.DiskCache and core's enumeration memo (bounded in bytes and in
// rounds held: the owner evicts through Oldest and Remove) and core's
// prepared-plan cache.
package lru

// Cache is a bounded least-recently-used map whose recency ring runs through
// its own nodes: an insert is one allocation, and at capacity the evicted
// node is reused for the new entry, so a steady miss-and-evict stream
// allocates nothing. Not safe for concurrent use: owners hold their own lock.
type Cache[K comparable, V any] struct {
	items    map[K]*node[K, V]
	root     node[K, V] // ring sentinel: root.next is most recent, root.prev oldest
	capacity int        // <= 0 retains nothing
}

type node[K comparable, V any] struct {
	key        K
	val        V
	prev, next *node[K, V]
}

// New returns an empty cache that holds at most capacity entries; a capacity
// <= 0 retains nothing.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	l := &Cache[K, V]{items: make(map[K]*node[K, V]), capacity: capacity}
	l.root.prev, l.root.next = &l.root, &l.root
	return l
}

// Len returns the number of entries held.
func (l *Cache[K, V]) Len() int { return len(l.items) }

// Cap returns the capacity the cache was built with.
func (l *Cache[K, V]) Cap() int { return l.capacity }

// Get returns the value stored under k and marks it most recently used.
func (l *Cache[K, V]) Get(k K) (v V, ok bool) {
	if n := l.items[k]; n != nil {
		l.toFront(n)
		v, ok = n.val, true
	}
	return v, ok
}

// Peek returns the value stored under k and leaves its recency alone.
func (l *Cache[K, V]) Peek(k K) (v V, ok bool) {
	if n := l.items[k]; n != nil {
		v, ok = n.val, true
	}
	return v, ok
}

// Put stores v under k as the most recent entry, replacing any previous
// value, and reports whether that evicted the oldest entry.
func (l *Cache[K, V]) Put(k K, v V) (evicted bool) {
	n := l.items[k]
	switch {
	case n != nil: // refreshed in place
	case l.capacity <= 0:
		return false
	case len(l.items) >= l.capacity:
		n, evicted = l.root.prev, true
		delete(l.items, n.key)
	default:
		n = &node[K, V]{}
		n.prev, n.next = n, n
	}
	n.key, n.val = k, v
	l.items[k] = n
	l.toFront(n)
	return evicted
}

// Remove drops the entry stored under k, returning the value it held.
func (l *Cache[K, V]) Remove(k K) (v V, ok bool) {
	n := l.items[k]
	if n == nil {
		return v, false
	}
	delete(l.items, k)
	n.prev.next, n.next.prev = n.next, n.prev
	return n.val, true
}

// Oldest returns the least recently used entry — the one the next Put at
// capacity would evict — without touching its recency.
func (l *Cache[K, V]) Oldest() (k K, v V, ok bool) {
	if n := l.root.prev; n != &l.root {
		k, v, ok = n.key, n.val, true
	}
	return k, v, ok
}

// OldestFirst calls yield for each entry in eviction order, least recently
// used first, until yield returns false. yield must not modify the cache.
func (l *Cache[K, V]) OldestFirst(yield func(K, V) bool) {
	for n := l.root.prev; n != &l.root && yield(n.key, n.val); n = n.prev {
	}
}

// toFront unlinks n (a fresh node is linked to itself) and relinks it as the
// most recent.
func (l *Cache[K, V]) toFront(n *node[K, V]) {
	n.prev.next, n.next.prev = n.next, n.prev
	n.prev, n.next = &l.root, l.root.next
	n.prev.next, n.next.prev = n, n
}
