package lru

import (
	"reflect"
	"testing"
)

// chainLen walks the recency list front to back and returns its length,
// failing loudly (by returning -1) if a back link disagrees with the forward
// walk — the map and the list are maintained separately, so tests compare
// this against len().
func chainLen[K comparable, V any](l *Cache[K, V]) int {
	n := 0
	for e := l.root.next; e != &l.root; e = e.next {
		if e.next.prev != e {
			return -1
		}
		n++
	}
	return n
}

// keysByRecency lists the keys most recent first.
func keysByRecency[K comparable, V any](l *Cache[K, V]) []K {
	var out []K
	for e := l.root.next; e != &l.root; e = e.next {
		out = append(out, e.key)
	}
	return out
}

func TestLRUOrderAndEviction(t *testing.T) {
	l := New[string, int](3)
	for i, k := range []string{"a", "b", "c"} {
		if l.Put(k, i) {
			t.Fatalf("put %q evicted below capacity", k)
		}
	}
	if v, ok := l.Get("a"); !ok || v != 0 {
		t.Fatalf("get a: %d %v", v, ok)
	}
	if got := keysByRecency(l); !reflect.DeepEqual(got, []string{"a", "c", "b"}) {
		t.Fatalf("recency after get: %v", got)
	}
	if !l.Put("d", 3) { // evicts b, the oldest
		t.Fatal("put over capacity must evict")
	}
	if _, ok := l.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if l.Put("c", 9) { // refresh in place
		t.Fatal("refresh must not evict")
	}
	if v, _ := l.Get("c"); v != 9 {
		t.Fatalf("refresh lost the value: %d", v)
	}
	if got := keysByRecency(l); !reflect.DeepEqual(got, []string{"c", "d", "a"}) {
		t.Fatalf("recency: %v", got)
	}
	if l.Len() != 3 || chainLen(l) != 3 {
		t.Fatalf("len %d chain %d", l.Len(), chainLen(l))
	}
}

func TestLRUZeroCapacityRetainsNothing(t *testing.T) {
	l := New[int, int](0)
	if l.Put(1, 1) {
		t.Fatal("nothing to evict")
	}
	if _, ok := l.Get(1); ok || l.Len() != 0 || chainLen(l) != 0 {
		t.Fatal("zero-capacity lru retained an entry")
	}
}

func TestLRUSteadyStateAllocatesNothing(t *testing.T) {
	l := New[int, int](8)
	for i := 0; i < 8; i++ {
		l.Put(i, i)
	}
	next := 8
	if n := testing.AllocsPerRun(100, func() {
		l.Put(next, next)
		next++
	}); n != 0 {
		t.Fatalf("miss-and-evict allocated %v times per put", n)
	}
}

// keysOldestFirst lists the keys in OldestFirst order.
func keysOldestFirst[K comparable, V any](l *Cache[K, V]) []K {
	var out []K
	l.OldestFirst(func(k K, _ V) bool {
		out = append(out, k)
		return true
	})
	return out
}

func TestLRURemove(t *testing.T) {
	for _, tc := range []struct {
		name   string
		keys   []string // inserted in this order, so keys[0] is the oldest
		remove string
		want   []string // recency, most recent first
	}{
		{"oldest", []string{"a", "b", "c"}, "a", []string{"c", "b"}},
		{"newest", []string{"a", "b", "c"}, "c", []string{"b", "a"}},
		{"middle", []string{"a", "b", "c"}, "b", []string{"c", "a"}},
		{"only", []string{"a"}, "a", nil},
	} {
		l := New[string, int](4)
		for i, k := range tc.keys {
			l.Put(k, i)
		}
		if _, ok := l.Remove("absent"); ok {
			t.Fatalf("%s: removed a key that was never stored", tc.name)
		}
		if _, ok := l.Remove(tc.remove); !ok {
			t.Fatalf("%s: Remove(%q) found nothing", tc.name, tc.remove)
		}
		if _, ok := l.Peek(tc.remove); ok {
			t.Fatalf("%s: %q still present", tc.name, tc.remove)
		}
		if got := keysByRecency(l); !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("%s: recency %v, want %v", tc.name, got, tc.want)
		}
		if l.Len() != len(tc.want) || chainLen(l) != len(tc.want) {
			t.Fatalf("%s: len %d chain %d, want %d", tc.name, l.Len(), chainLen(l), len(tc.want))
		}
		// The cache stays usable: a new entry lands at the front.
		l.Put("z", 9)
		if got := keysByRecency(l); got[0] != "z" || chainLen(l) != len(tc.want)+1 {
			t.Fatalf("%s: after reuse recency %v chain %d", tc.name, got, chainLen(l))
		}
	}
}

func TestLRUPeekLeavesRecencyAlone(t *testing.T) {
	l := New[string, int](2)
	l.Put("a", 1)
	l.Put("b", 2)
	if v, ok := l.Peek("a"); !ok || v != 1 {
		t.Fatalf("peek a: %d %v", v, ok)
	}
	if k, v, ok := l.Oldest(); !ok || k != "a" || v != 1 {
		t.Fatalf("oldest after peek: %q %d %v", k, v, ok)
	}
	l.Put("c", 3) // must evict a: the peek did not refresh it
	if _, ok := l.Peek("a"); ok {
		t.Fatal("a survived an eviction its peek should not have deferred")
	}
}

func TestLRUOldestFirstIsEvictionOrder(t *testing.T) {
	l := New[int, int](5)
	for i := 0; i < 5; i++ {
		l.Put(i, i)
	}
	l.Get(1)
	l.Get(0)
	walk := keysOldestFirst(l)
	if want := []int{2, 3, 4, 1, 0}; !reflect.DeepEqual(walk, want) {
		t.Fatalf("oldest-first walk %v, want %v", walk, want)
	}
	stopped := 0
	l.OldestFirst(func(int, int) bool { stopped++; return stopped < 2 })
	if stopped != 2 {
		t.Fatalf("walk ignored yield's false: %d calls", stopped)
	}
	// Evict everything by inserting five new keys: each Put must drop the
	// head of the walk.
	for i, want := range walk {
		k, _, _ := l.Oldest()
		if k != want {
			t.Fatalf("eviction %d: oldest %d, walk said %d", i, k, want)
		}
		if !l.Put(100+i, 0) {
			t.Fatalf("eviction %d: put at capacity did not evict", i)
		}
		if _, ok := l.Peek(want); ok {
			t.Fatalf("eviction %d: %d survived", i, want)
		}
	}
}
