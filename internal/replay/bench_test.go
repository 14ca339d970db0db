package replay_test

import (
	"fmt"
	"testing"

	"pacifier/internal/core"
	"pacifier/internal/record"
	"pacifier/internal/replay"
	"pacifier/internal/trace"
)

// recordFFT records fft with the given threads and ops per thread under
// Granule alone, with the default options.
func recordFFT(tb testing.TB, cores, ops int) *core.RunResult {
	tb.Helper()
	p, err := trace.ProfileByName("fft")
	if err != nil {
		tb.Fatal(err)
	}
	rr, err := core.Record(p.Generate(cores, ops, 1), core.DefaultOptions(), record.ModeGranule)
	if err != nil {
		tb.Fatal(err)
	}
	return rr
}

// replayConfig is the configuration core.ReplayExternal passes.
func replayConfig(rr *core.RunResult) replay.Config {
	return replay.Config{Stats: rr.Stats, Profile: rr.Profiled}
}

var sinkStepper *replay.Stepper

// BenchmarkNewStepper measures replay set-up alone: validating the log
// and building the stepper over a recorded fft log.
func BenchmarkNewStepper(b *testing.B) {
	for _, n := range []int{16, 64} {
		rr := recordFFT(b, n, 2000)
		log := rr.Recording(record.ModeGranule).Log
		b.Run(fmt.Sprintf("p%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st, err := replay.NewStepper(log, rr.Workload, rr.Records, replayConfig(rr))
				if err != nil {
					b.Fatal(err)
				}
				sinkStepper = st
			}
		})
	}
}

// BenchmarkReplayRun measures a whole verified replay, set-up included,
// of a recorded fft log.
func BenchmarkReplayRun(b *testing.B) {
	for _, n := range []int{16, 64} {
		rr := recordFFT(b, n, 2000)
		log := rr.Recording(record.ModeGranule).Log
		b.Run(fmt.Sprintf("p%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := replay.Run(log, rr.Workload, rr.Records, replayConfig(rr))
				if err != nil {
					b.Fatal(err)
				}
				if !res.Deterministic() {
					b.Fatalf("replay diverged: %v", res.Divergence)
				}
			}
			b.ReportMetric(float64(rr.MemOps)*float64(b.N)/b.Elapsed().Seconds(), "memops/s")
		})
	}
}

// TestStepLoopAllocsConstant bounds the allocations of stepping a
// replay to its end, set-up excluded, by a constant: per-op and
// per-chunk work must not allocate, so a log with four times the
// chunks stays under the same bound.
func TestStepLoopAllocsConstant(t *testing.T) {
	const maxAllocs = 8
	for _, ops := range []int{500, 2000} {
		rr := recordFFT(t, 16, ops)
		log := rr.Recording(record.ModeGranule).Log
		const runs = 3
		steppers := make([]*replay.Stepper, runs+1) // AllocsPerRun adds a warm-up run
		for i := range steppers {
			st, err := replay.NewStepper(log, rr.Workload, rr.Records, replayConfig(rr))
			if err != nil {
				t.Fatal(err)
			}
			steppers[i] = st
		}
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			st := steppers[next]
			next++
			for {
				if _, ok := st.Step(); !ok {
					break
				}
			}
		})
		if res := steppers[0].Result(); !res.Deterministic() || res.OpsReplayed != rr.MemOps {
			t.Fatalf("ops=%d: replay diverged: %d of %d ops, %v", ops, res.OpsReplayed, rr.MemOps, res.Divergence)
		}
		t.Logf("ops=%d: %d chunks, %.1f allocs per step loop", ops, log.TotalChunks(), allocs)
		if allocs > maxAllocs {
			t.Fatalf("ops=%d: step loop over %d chunks made %.1f allocations, want <= %d",
				ops, log.TotalChunks(), allocs, maxAllocs)
		}
	}
}
