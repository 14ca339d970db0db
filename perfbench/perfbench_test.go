package main

import (
	"bytes"
	"context"
	"runtime/pprof"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"pacifier/internal/coherence.(*L1).handle":               "coherence",
		"pacifier/internal/telemetry/telhttp.Serve":              "telemetry",
		"pacifier.Record":                                        "pacifier",
		"pacifier/perfbench.main":                                "bench",
		"runtime.mallocgc":                                       "runtime_gc",
		"runtime.(*mspan).nextFreeIndex":                         "runtime_gc",
		"runtime.mapassign_fast64":                               "runtime_maps",
		"internal/runtime/maps.(*Map).getWithKeySmall":           "runtime_maps",
		"aeshashbody":                                            "runtime_maps",
		"runtime.memmove":                                        "runtime_other",
		"encoding/json.(*decodeState).object":                    "stdlib",
		"sort.partition_func":                                    "stdlib",
		"pacifier/internal/replay.(*Stepper).CaptureState.func3": "replay",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestSampleLayerChargesLibraryToCaller(t *testing.T) {
	names := map[uint64]string{1: "sort.insertionSort", 2: "sort.Sort", 3: "pacifier/internal/debug.(*Session).SeekTo",
		4: "runtime.mallocgc", 5: "runtime.main"}
	frames := map[uint64][]uint64{10: {1, 2}, 11: {3}, 12: {4}, 13: {5}}
	for _, c := range []struct {
		locs []uint64
		want string
	}{
		{[]uint64{10, 11}, "debug"},
		{[]uint64{12, 11}, "runtime_gc"},
		{[]uint64{10, 13}, "stdlib"},
	} {
		if got := sampleLayer(c.locs, frames, names); got != c.want {
			t.Errorf("sampleLayer(%v) = %q, want %q", c.locs, got, c.want)
		}
	}
}

// TestParseCPUProfile profiles a busy loop, half of it under the exclude
// label, and checks that the decoder finds samples and drops the
// labelled ones.
func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.Do(context.Background(), pprof.Labels(excludeLabel, "check"), func(context.Context) {
		spin(300 * time.Millisecond)
	})
	pprof.StopCPUProfile()
	all, err := decodeAndCount(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	h, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if h.Total <= 0 || h.Total >= all {
		t.Fatalf("kept %d ns of %d: want some but not all samples", h.Total, all)
	}
}

// decodeAndCount sums the CPU time of every sample, labelled or not.
func decodeAndCount(gz []byte) (int64, error) {
	p, err := readProfile(gz)
	if err != nil {
		return 0, err
	}
	var sum int64
	for _, s := range p.samples {
		sum += s.values[p.sampleTypes-1]
	}
	return sum, nil
}

var sink int

func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			sink += i * i
		}
	}
}

func TestCovered(t *testing.T) {
	list := []span{
		{Start: 0, End: 100, Parent: -1},
		{Start: 10, End: 40, Parent: 0},
		{Start: 30, End: 60, Parent: 0},
		{Start: 80, End: 120, Parent: 0},
	}
	if got := covered(list, []int{1, 2, 3}, 0, 100); got != 70 {
		t.Fatalf("covered = %d, want 70 (10-60 and 80-100)", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := quantile(xs, 0.5); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 0.9); got < 3.69 || got > 3.71 {
		t.Fatalf("p90 = %v, want 3.7", got)
	}
}
