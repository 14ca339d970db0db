package replay

import (
	"slices"
	"testing"

	"pacifier/internal/cpu"
	"pacifier/internal/obs"
	"pacifier/internal/relog"
	"pacifier/internal/trace"
)

// tiny workload: two cores, two ops each on distinct words of one line.
func tinyWorkload() *trace.Workload {
	x := trace.SharedWord(0, 0)
	y := trace.SharedWord(0, 1)
	return &trace.Workload{
		Name: "tiny",
		Threads: []trace.Thread{
			{{Kind: trace.Write, Addr: x}, {Kind: trace.Read, Addr: y}},
			{{Kind: trace.Write, Addr: y}, {Kind: trace.Read, Addr: x}},
		},
	}
}

// handLog builds a two-chunk-per-core log: P0 then P1 (P1 waits P0).
func handLog() *relog.Log {
	l := relog.NewLog(2)
	l.Append(&relog.Chunk{PID: 0, CID: 0, StartSN: 1, EndSN: 2, TS: 0, Duration: 10})
	l.Append(&relog.Chunk{PID: 1, CID: 0, StartSN: 1, EndSN: 2, TS: 1,
		Preds: []relog.ChunkRef{{PID: 0, CID: 0}}, Duration: 10})
	return l
}

func TestReplayRespectsChunkOrder(t *testing.T) {
	w := tinyWorkload()
	log := handLog()
	// Expected: P1 runs after P0, so P1's read of x sees P0's store;
	// P0's read of y sees 0.
	expected := [][]cpu.ExecRecord{
		{
			{SN: 1, Kind: trace.Write, Value: cpu.StoreValue(0, 1)},
			{SN: 2, Kind: trace.Read, Value: 0},
		},
		{
			{SN: 1, Kind: trace.Write, Value: cpu.StoreValue(1, 1)},
			{SN: 2, Kind: trace.Read, Value: cpu.StoreValue(0, 1)},
		},
	}
	res, err := Run(log, w, expected, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deterministic() {
		t.Fatalf("replay diverged: %+v", res.Mismatches)
	}
	if res.OpsReplayed != 4 || res.ChunksReplayed != 2 {
		t.Fatalf("ops=%d chunks=%d", res.OpsReplayed, res.ChunksReplayed)
	}
}

func TestReplayDSetLoadUsesLoggedValue(t *testing.T) {
	w := tinyWorkload()
	l := relog.NewLog(2)
	// P0's read (sn 2) is delayed: logged value 42 despite memory.
	l.Append(&relog.Chunk{PID: 0, CID: 0, StartSN: 1, EndSN: 2, TS: 0, Duration: 5,
		DSet: []relog.DEntry{{Offset: 1, IsLoad: true, Value: 42}}})
	l.Append(&relog.Chunk{PID: 1, CID: 0, StartSN: 1, EndSN: 2, TS: 1,
		Preds: []relog.ChunkRef{{PID: 0, CID: 0}}, Duration: 5})
	expected := [][]cpu.ExecRecord{
		{
			{SN: 1, Kind: trace.Write, Value: cpu.StoreValue(0, 1)},
			{SN: 2, Kind: trace.Read, Value: 42},
		},
		{
			{SN: 1, Kind: trace.Write, Value: cpu.StoreValue(1, 1)},
			{SN: 2, Kind: trace.Read, Value: cpu.StoreValue(0, 1)},
		},
	}
	res, err := Run(l, w, expected, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MismatchCount != 0 {
		t.Fatalf("logged value not used: %+v", res.Mismatches)
	}
}

func TestReplayDelayedStoreViaPSet(t *testing.T) {
	// P0's store (sn 1) is delayed past its chunk and executes at the
	// P_set of P0's second chunk, after P1's chunk completes. P1's read
	// of x must therefore see 0.
	w := tinyWorkload()
	l := relog.NewLog(2)
	l.Append(&relog.Chunk{PID: 0, CID: 0, StartSN: 1, EndSN: 2, TS: 0, Duration: 5,
		DSet: []relog.DEntry{{Offset: 0, IsLoad: false,
			Pred: []relog.ChunkRef{{PID: 1, CID: 0}}}}})
	l.Append(&relog.Chunk{PID: 0, CID: 1, StartSN: 3, EndSN: 2, TS: 3, Duration: 1,
		PSet: []relog.PEntry{{SrcCID: 0, Offset: 0}}})
	l.Append(&relog.Chunk{PID: 1, CID: 0, StartSN: 1, EndSN: 2, TS: 1,
		Preds: []relog.ChunkRef{{PID: 0, CID: 0}}, Duration: 5})
	expected := [][]cpu.ExecRecord{
		{
			{SN: 1, Kind: trace.Write, Value: cpu.StoreValue(0, 1)},
			{SN: 2, Kind: trace.Read, Value: 0}, // Dekker: both loads 0
		},
		{
			{SN: 1, Kind: trace.Write, Value: cpu.StoreValue(1, 1)},
			{SN: 2, Kind: trace.Read, Value: 0}, // Dekker: both loads 0
		},
	}
	res, mem, err := RunWithMemory(l, w, expected, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deterministic() {
		t.Fatalf("SCV replay diverged: %+v", res.Mismatches)
	}
	x := trace.SharedWord(0, 0)
	if mem[x] != cpu.StoreValue(0, 1) {
		t.Fatalf("delayed store missing from final memory: %d", mem[x])
	}
}

func TestReplayVLogOverridesMemory(t *testing.T) {
	w := tinyWorkload()
	l := relog.NewLog(2)
	l.Append(&relog.Chunk{PID: 0, CID: 0, StartSN: 1, EndSN: 2, TS: 0, Duration: 5,
		VLog: []relog.VEntry{{Offset: 1, Value: 77}}})
	l.Append(&relog.Chunk{PID: 1, CID: 0, StartSN: 1, EndSN: 2, TS: 1,
		Preds: []relog.ChunkRef{{PID: 0, CID: 0}}, Duration: 5})
	expected := [][]cpu.ExecRecord{
		{
			{SN: 1, Kind: trace.Write, Value: cpu.StoreValue(0, 1)},
			{SN: 2, Kind: trace.Read, Value: 77},
		},
		{
			{SN: 1, Kind: trace.Write, Value: cpu.StoreValue(1, 1)},
			{SN: 2, Kind: trace.Read, Value: cpu.StoreValue(0, 1)},
		},
	}
	res, err := Run(l, w, expected, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MismatchCount != 0 {
		t.Fatalf("vlog not applied: %+v", res.Mismatches)
	}
}

func TestReplayDetectsMismatch(t *testing.T) {
	w := tinyWorkload()
	log := handLog()
	expected := [][]cpu.ExecRecord{
		{
			{SN: 1, Kind: trace.Write, Value: cpu.StoreValue(0, 1)},
			{SN: 2, Kind: trace.Read, Value: 999}, // wrong on purpose
		},
		{
			{SN: 1, Kind: trace.Write, Value: cpu.StoreValue(1, 1)},
			{SN: 2, Kind: trace.Read, Value: cpu.StoreValue(0, 1)},
		},
	}
	res, err := Run(log, w, expected, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MismatchCount != 1 {
		t.Fatalf("mismatch not detected (%d)", res.MismatchCount)
	}
}

func TestReplayBreaksCycles(t *testing.T) {
	// Two chunks waiting on each other: a cycle a correct recorder never
	// produces; the scheduler must break it and report.
	w := tinyWorkload()
	l := relog.NewLog(2)
	l.Append(&relog.Chunk{PID: 0, CID: 0, StartSN: 1, EndSN: 2, TS: 0, Duration: 5,
		Preds: []relog.ChunkRef{{PID: 1, CID: 0}}})
	l.Append(&relog.Chunk{PID: 1, CID: 0, StartSN: 1, EndSN: 2, TS: 1, Duration: 5,
		Preds: []relog.ChunkRef{{PID: 0, CID: 0}}})
	res, err := Run(l, w, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.OrderBreaks == 0 {
		t.Fatal("cycle not reported")
	}
	if res.OpsReplayed != 4 {
		t.Fatal("replay did not complete after the break")
	}
}

func TestReplayTimingWaitsForPreds(t *testing.T) {
	w := tinyWorkload()
	log := handLog()
	res, err := Run(log, w, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// P1 starts after P0 ends (10) plus a wake-up: makespan > 20.
	if res.Makespan <= 20 {
		t.Fatalf("makespan %d does not include the pred wait", res.Makespan)
	}
	if res.StallCycles <= 0 {
		t.Fatal("no stall recorded")
	}
}

func TestReplayRejectsMismatchedWorkload(t *testing.T) {
	log := handLog()
	w := &trace.Workload{Name: "onethread", Threads: []trace.Thread{{}}}
	if _, err := Run(log, w, nil, Config{}); err == nil {
		t.Fatal("core-count mismatch accepted")
	}
}

func TestReplayLeftoverSSBFlushed(t *testing.T) {
	// A delayed store never claimed by any P_set: flushed and counted.
	w := tinyWorkload()
	l := relog.NewLog(2)
	l.Append(&relog.Chunk{PID: 0, CID: 0, StartSN: 1, EndSN: 2, TS: 0, Duration: 5,
		DSet: []relog.DEntry{{Offset: 0, IsLoad: false}}})
	l.Append(&relog.Chunk{PID: 1, CID: 0, StartSN: 1, EndSN: 2, TS: 1, Duration: 5})
	res, mem, err := RunWithMemory(l, w, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.LeftoverSSB != 1 {
		t.Fatalf("leftover SSB %d, want 1", res.LeftoverSSB)
	}
	if mem[trace.SharedWord(0, 0)] != cpu.StoreValue(0, 1) {
		t.Fatal("leftover store not flushed to memory")
	}
}

// TestLeftoverSSBFlushOrder: delayed stores no P_set claims flush in
// (pid, cid, offset) order, each counted, so the last in that order
// decides the final value of a word they share.
func TestLeftoverSSBFlushOrder(t *testing.T) {
	x := trace.SharedWord(0, 0)
	w := &trace.Workload{Name: "leftovers", Threads: []trace.Thread{
		{{Kind: trace.Write, Addr: x}, {Kind: trace.Compute, Cycles: 3}, {Kind: trace.Write, Addr: x}},
		{{Kind: trace.Write, Addr: x}, {Kind: trace.Write, Addr: x}},
	}}
	l := relog.NewLog(2)
	delayed := func(offs ...int32) []relog.DEntry {
		var d []relog.DEntry
		for _, o := range offs {
			d = append(d, relog.DEntry{Offset: o})
		}
		return d
	}
	l.Append(&relog.Chunk{PID: 0, CID: 0, StartSN: 1, EndSN: 1, TS: 0, Duration: 5, DSet: delayed(0)})
	l.Append(&relog.Chunk{PID: 0, CID: 1, StartSN: 2, EndSN: 2, TS: 2, Duration: 5, DSet: delayed(0)})
	l.Append(&relog.Chunk{PID: 1, CID: 0, StartSN: 1, EndSN: 2, TS: 1, Duration: 5, DSet: delayed(1, 0)})
	tr := obs.New("leftovers")
	res, mem, err := RunWithMemory(l, w, nil, Config{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if res.LeftoverSSB != 4 {
		t.Fatalf("leftover SSB %d, want 4", res.LeftoverSSB)
	}
	type ref struct {
		pid     int32
		cid, sn int64
	}
	want := []ref{{0, 0, 1}, {0, 1, 2}, {1, 0, 1}, {1, 0, 2}}
	var got []ref
	for _, e := range tr.Events() {
		if e.Kind == obs.KReplayDiverge {
			got = append(got, ref{e.Core, e.CID, e.SN})
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("flush order %v, want %v", got, want)
	}
	if d := res.Divergence; d == nil || d.Kind != "leftover-ssb" || d.PID != 0 || d.CID != 0 {
		t.Fatalf("first divergence %v, want core 0 chunk 0's leftover store", d)
	}
	if mem[x] != cpu.StoreValue(1, 2) {
		t.Fatalf("final x = %#x, want core 1 sn 2's store %#x", mem[x], cpu.StoreValue(1, 2))
	}
}
