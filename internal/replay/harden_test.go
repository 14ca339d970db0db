package replay

import (
	"errors"
	"strings"
	"testing"

	"pacifier/internal/cpu"
	"pacifier/internal/relog"
	"pacifier/internal/trace"
)

// The replayer must never crash on a log it accepted: structurally bad
// logs are rejected up front by relog.Validate, and log/workload
// mismatches that only surface during execution become typed Defects in
// the Result instead of panics.

func TestReplayRejectsInvalidLog(t *testing.T) {
	// A value-log offset outside the chunk: decodes fine, fails Validate.
	l := relog.NewLog(2)
	l.Append(&relog.Chunk{PID: 0, CID: 0, StartSN: 1, EndSN: 2, TS: 0, Duration: 5,
		VLog: []relog.VEntry{{Offset: 9, Value: 1}}})
	l.Append(&relog.Chunk{PID: 1, CID: 0, StartSN: 1, EndSN: 2, TS: 1, Duration: 5})
	_, err := Run(l, tinyWorkload(), nil, Config{})
	if err == nil {
		t.Fatal("invalid log accepted")
	}
	if !errors.Is(err, relog.ErrInvalid) {
		t.Fatalf("rejection %v does not wrap relog.ErrInvalid", err)
	}
	var verr *relog.ValidationError
	if !errors.As(err, &verr) {
		t.Fatalf("rejection %v carries no *relog.ValidationError", err)
	}
}

func TestReplayDefectOnStoreDelayedLoad(t *testing.T) {
	// The log delays SN 2 of P0 as a store, but in the workload that op
	// is a load. Validate cannot see the workload, so the mismatch only
	// surfaces when the delayed "store" is applied: a Defect, not a
	// panic, and the run is reported non-deterministic.
	l := relog.NewLog(2)
	l.Append(&relog.Chunk{PID: 0, CID: 0, StartSN: 1, EndSN: 2, TS: 0, Duration: 5,
		DSet: []relog.DEntry{{Offset: 1, IsLoad: false}}})
	l.Append(&relog.Chunk{PID: 1, CID: 0, StartSN: 1, EndSN: 2, TS: 1, Duration: 5})
	res, err := Run(l, tinyWorkload(), nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.DefectCount == 0 || len(res.Defects) == 0 {
		t.Fatal("store-delayed load produced no defect")
	}
	d := res.Defects[0]
	if d.PID != 0 || d.SN != 2 || !strings.Contains(d.Error(), "executed as a store") {
		t.Fatalf("unexpected defect %+v", d)
	}
	if res.Deterministic() {
		t.Fatal("run with defects reported deterministic")
	}
}

func TestReplayRejectsMismatchedExpected(t *testing.T) {
	// Recorded outcomes covering the wrong number of cores would index
	// out of range during checking; reject before replaying.
	expected := [][]cpu.ExecRecord{{{SN: 1, Kind: trace.Write}}}
	if _, err := Run(handLog(), tinyWorkload(), expected, Config{}); err == nil {
		t.Fatal("expected-length mismatch accepted")
	}
}

func TestReplayRejectsOverlongChunk(t *testing.T) {
	// A chunk claiming more SNs than the thread has ops would run off
	// the end of the op list; reject before replaying.
	w := &trace.Workload{
		Name: "short",
		Threads: []trace.Thread{
			{{Kind: trace.Write, Addr: trace.SharedWord(0, 0)}},
			{{Kind: trace.Write, Addr: trace.SharedWord(0, 1)}},
		},
	}
	l := relog.NewLog(2)
	l.Append(&relog.Chunk{PID: 0, CID: 0, StartSN: 1, EndSN: 4, TS: 0, Duration: 5,
		DSet: []relog.DEntry{{Offset: 3, IsLoad: false}}})
	l.Append(&relog.Chunk{PID: 1, CID: 0, StartSN: 1, EndSN: 1, TS: 1, Duration: 5})
	if _, err := Run(l, w, nil, Config{}); err == nil {
		t.Fatal("chunk past the end of the workload accepted")
	}
}

// TestRestoreStateRejectsHostileStates: a State whose scheduler indices
// disagree with the log must be rejected with ErrBadState, leave the
// stepper where it was, and never panic.
func TestRestoreStateRejectsHostileStates(t *testing.T) {
	w, l := synthWorkload(), synthLog()
	for _, tc := range []struct {
		name   string
		mutate func(*State)
	}{
		{"negative cursor", func(st *State) { st.Cursor[1] = -5 }},
		{"cursor past end", func(st *State) { st.Cursor[2] = 1 << 30 }},
		{"negative remaining", func(st *State) { st.Remaining = -3 }},
		{"remaining disagrees with cursors", func(st *State) { st.Remaining++ }},
		{"steps disagree with cursors", func(st *State) { st.Steps += 2 }},
		{"scan start out of range", func(st *State) { st.ScanStart = 4 }},
		{"negative scan position", func(st *State) { st.ScanK = -1 }},
		{"scan position past end", func(st *State) { st.ScanK = 5 }},
		{"core count mismatch", func(st *State) { st.Cursor = st.Cursor[:3] }},
		{"SSB entry outside workload", func(st *State) { st.SSB = append(st.SSB, SSBState{PID: 9, SN: 1}) }},
		// At position 5 chunks 0/0, 1/0, 2/0, 3/0 and 3/1 have executed,
		// and chunk 0/0's delayed store (offset 0, SN 1) is parked.
		{"chunk_end core out of range", func(st *State) { st.ChunkEnd[4].PID = 4 }},
		{"chunk_end of an unexecuted chunk", func(st *State) { st.ChunkEnd[0].CID = 1 }},
		{"negative chunk_end chunk", func(st *State) { st.ChunkEnd[0].CID = -1 }},
		{"chunk_end entry missing", func(st *State) { st.ChunkEnd = st.ChunkEnd[:4] }},
		{"chunk_end entry extra", func(st *State) { st.ChunkEnd = append(st.ChunkEnd, ChunkEndState{PID: 3, CID: 2}) }},
		{"chunk_end entry repeated", func(st *State) { st.ChunkEnd[4] = st.ChunkEnd[3] }},
		{"SSB entry not a delayed store", func(st *State) { st.SSB[0].Offset, st.SSB[0].SN = 1, 2 }},
		{"SSB entry with the wrong SN", func(st *State) { st.SSB[0].SN = 2 }},
		{"SSB entry of an unexecuted chunk", func(st *State) {
			st.SSB = append(st.SSB, SSBState{PID: 0, CID: 1, Offset: 0, SN: 3})
		}},
		{"SSB entry with foreign preds", func(st *State) { st.SSB[0].Preds = []relog.ChunkRef{{PID: 63, CID: 0}} }},
		{"SSB entry repeated", func(st *State) { st.SSB = append(st.SSB, st.SSB[0]) }},
		{"memory word no store targets", func(st *State) {
			st.Mem = append(st.Mem, MemState{Addr: uint64(trace.SharedWord(9, 3)), Val: 1})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := NewStepper(l, w, nil, synthConfig())
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				st.Step()
			}
			bad := st.CaptureState()
			tc.mutate(bad)
			want := st.CaptureState()
			if err := st.RestoreState(bad); !errors.Is(err, ErrBadState) {
				t.Fatalf("RestoreState = %v, want ErrBadState", err)
			}
			if st.Pos() != 5 {
				t.Fatalf("rejected restore moved the stepper to pos %d", st.Pos())
			}
			a, _ := want.Marshal()
			b, _ := st.CaptureState().Marshal()
			if string(a) != string(b) {
				t.Fatal("rejected restore modified the stepper")
			}
		})
	}
}
