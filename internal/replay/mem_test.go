package replay

import (
	"testing"

	"pacifier/internal/coherence"
)

// TestMemImageMatchesMap drives the memory image with as many distinct
// addresses as it was sized for, overwrites half of them, and checks
// every read, the sorted capture and clear against a plain map.
func TestMemImageMatchesMap(t *testing.T) {
	const stores = 1000
	m := newMemImage(stores)
	want := map[coherence.Addr]uint64{}
	addr := func(i int) coherence.Addr { return coherence.Addr(0x10000 + 8*i*i) }
	for i := 0; i < stores; i++ {
		m.set(addr(i), uint64(i))
		want[addr(i)] = uint64(i)
	}
	for i := 0; i < stores; i += 2 {
		m.set(addr(i), 0)
		want[addr(i)] = 0
	}
	for i := 0; i < 2*stores; i++ {
		if got := m.get(addr(i)); got != want[addr(i)] {
			t.Fatalf("get(%#x) = %d, want %d", uint64(addr(i)), got, want[addr(i)])
		}
	}
	if len(m.words) != stores || cap(m.words) != stores {
		t.Fatalf("%d words in capacity %d, want %d in %d", len(m.words), cap(m.words), stores, stores)
	}
	words := m.sorted()
	if len(words) != len(want) {
		t.Fatalf("sorted() has %d words, want %d", len(words), len(want))
	}
	for i, w := range words {
		if i > 0 && words[i-1].Addr >= w.Addr {
			t.Fatalf("sorted() out of order at %d", i)
		}
		if want[coherence.Addr(w.Addr)] != w.Val {
			t.Fatalf("sorted() word %#x = %d, want %d", w.Addr, w.Val, want[coherence.Addr(w.Addr)])
		}
	}
	m.clear()
	if got := m.sorted(); len(got) != 0 || got == nil {
		t.Fatalf("after clear sorted() = %v, want empty and non-nil", got)
	}
	if m.get(addr(1)) != 0 {
		t.Fatal("clear kept a word")
	}
}
