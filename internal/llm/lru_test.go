package llm

import (
	"reflect"
	"testing"
)

// chainLen walks the recency list front to back and returns its length,
// failing loudly (by returning -1) if a back link disagrees with the forward
// walk — the map and the list are maintained separately, so tests compare
// this against len().
func chainLen[K comparable, V any](l *lru[K, V]) int {
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
func keysByRecency[K comparable, V any](l *lru[K, V]) []K {
	var out []K
	for e := l.root.next; e != &l.root; e = e.next {
		out = append(out, e.key)
	}
	return out
}

func TestLRUOrderAndEviction(t *testing.T) {
	l := newLRU[string, int](3)
	for i, k := range []string{"a", "b", "c"} {
		if l.put(k, i) {
			t.Fatalf("put %q evicted below capacity", k)
		}
	}
	if v, ok := l.get("a"); !ok || v != 0 {
		t.Fatalf("get a: %d %v", v, ok)
	}
	if got := keysByRecency(l); !reflect.DeepEqual(got, []string{"a", "c", "b"}) {
		t.Fatalf("recency after get: %v", got)
	}
	if !l.put("d", 3) { // evicts b, the oldest
		t.Fatal("put over capacity must evict")
	}
	if _, ok := l.get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if l.put("c", 9) { // refresh in place
		t.Fatal("refresh must not evict")
	}
	if v, _ := l.get("c"); v != 9 {
		t.Fatalf("refresh lost the value: %d", v)
	}
	if got := keysByRecency(l); !reflect.DeepEqual(got, []string{"c", "d", "a"}) {
		t.Fatalf("recency: %v", got)
	}
	if l.len() != 3 || chainLen(l) != 3 {
		t.Fatalf("len %d chain %d", l.len(), chainLen(l))
	}
}

func TestLRUZeroCapacityRetainsNothing(t *testing.T) {
	l := newLRU[int, int](0)
	if l.put(1, 1) {
		t.Fatal("nothing to evict")
	}
	if _, ok := l.get(1); ok || l.len() != 0 || chainLen(l) != 0 {
		t.Fatal("zero-capacity lru retained an entry")
	}
}

func TestLRUSteadyStateAllocatesNothing(t *testing.T) {
	l := newLRU[int, int](8)
	for i := 0; i < 8; i++ {
		l.put(i, i)
	}
	next := 8
	if n := testing.AllocsPerRun(100, func() {
		l.put(next, next)
		next++
	}); n != 0 {
		t.Fatalf("miss-and-evict allocated %v times per put", n)
	}
}
