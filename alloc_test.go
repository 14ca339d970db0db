package pacifier_test

import (
	"testing"

	"pacifier"
)

// recordAllocCeiling is the allocation count of one Record of fft with
// 16 threads of 2000 ops under Granule, tracing and cycle accounting
// off: the record-fft16 benchmark operation. It holds on any runner,
// unlike a wall-clock gate, so a change that adds allocations to the
// record path fails here even where timings cannot be compared.
const recordAllocCeiling = 16746

func TestRecordAllocCeiling(t *testing.T) {
	w, err := pacifier.App("fft", 16, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := pacifier.Record(w, pacifier.Options{Seed: 1, Atomic: true}, pacifier.Granule); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > recordAllocCeiling {
		t.Fatalf("Record fft/p16/2000 (Granule) makes %.0f allocations, ceiling %d", allocs, recordAllocCeiling)
	}
}
