package llm

// lru is a bounded least-recently-used map whose recency ring runs through
// its own nodes: an insert is one allocation, and at capacity the evicted
// node is reused for the new entry, so a steady miss-and-evict stream
// allocates nothing. Not safe for concurrent use: owners hold their own lock.
type lru[K comparable, V any] struct {
	items    map[K]*lruNode[K, V]
	root     lruNode[K, V] // ring sentinel: root.next is most recent, root.prev oldest
	capacity int           // <= 0 retains nothing
}

type lruNode[K comparable, V any] struct {
	key        K
	val        V
	prev, next *lruNode[K, V]
}

func newLRU[K comparable, V any](capacity int) *lru[K, V] {
	l := &lru[K, V]{items: make(map[K]*lruNode[K, V]), capacity: capacity}
	l.root.prev, l.root.next = &l.root, &l.root
	return l
}

func (l *lru[K, V]) len() int { return len(l.items) }

// get returns the value stored under k and marks it most recently used.
func (l *lru[K, V]) get(k K) (v V, ok bool) {
	if n := l.items[k]; n != nil {
		l.toFront(n)
		v, ok = n.val, true
	}
	return v, ok
}

// put stores v under k as the most recent entry, replacing any previous
// value, and reports whether that evicted the oldest entry.
func (l *lru[K, V]) put(k K, v V) (evicted bool) {
	n := l.items[k]
	switch {
	case n != nil: // refreshed in place
	case l.capacity <= 0:
		return false
	case len(l.items) >= l.capacity:
		n, evicted = l.root.prev, true
		delete(l.items, n.key)
	default:
		n = &lruNode[K, V]{}
		n.prev, n.next = n, n
	}
	n.key, n.val = k, v
	l.items[k] = n
	l.toFront(n)
	return evicted
}

// toFront unlinks n (a fresh node is linked to itself) and relinks it as the
// most recent.
func (l *lru[K, V]) toFront(n *lruNode[K, V]) {
	n.prev.next, n.next.prev = n.next, n.prev
	n.prev, n.next = &l.root, l.root.next
	n.prev.next, n.next.prev = n, n
}
