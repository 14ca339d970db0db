package coherence

import (
	"testing"

	"pacifier/internal/cache"
)

func TestLineIndexDenseIDsAcrossGrowth(t *testing.T) {
	var x lineIndex
	if _, ok := x.get(7); ok {
		t.Fatal("empty index found a line")
	}
	// Lines that share their low bits, so probes collide and the index
	// grows several times.
	const n = 5000
	line := func(i int) cache.Line { return cache.Line(i) << 20 }
	for i := 0; i < n; i++ {
		x.add(line(i))
		if id, ok := x.get(line(i)); !ok || id != int32(i) {
			t.Fatalf("line %d: got id %d ok %v right after add", i, id, ok)
		}
	}
	for i := 0; i < n; i++ {
		if id, ok := x.get(line(i)); !ok || id != int32(i) {
			t.Fatalf("line %d: got id %d ok %v, want %d", i, id, ok, i)
		}
		if _, ok := x.get(line(i) + 1); ok {
			t.Fatalf("absent line %d found", line(i)+1)
		}
	}
	if 2*n > len(x.slots) {
		t.Fatalf("%d slots for %d lines: more than half full", len(x.slots), n)
	}
}
