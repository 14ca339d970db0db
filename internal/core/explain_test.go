package core

import (
	"testing"

	"pacifier/internal/obs"
	"pacifier/internal/record"
	"pacifier/internal/relog"
	"pacifier/internal/sim"
	"pacifier/internal/trace"
)

// TestExplainOrderingCorruption injects the failure mode the divergence
// explainer exists for: a log whose cross-chunk ordering information
// (the Pred edges) has been stripped. The damaged log still passes
// every wire-level and semantic check — lost ordering is not locally
// detectable — but its replay diverges, and the explainer must name the
// first divergent event and correlate it back to the recorded chunk.
func TestExplainOrderingCorruption(t *testing.T) {
	opts := DefaultOptions()
	opts.Seed = 1
	tr := obs.New("explain-test")
	opts.Tracer = tr
	rr, err := Record(trace.StoreBuffering(), opts, record.ModeGranule)
	if err != nil {
		t.Fatal(err)
	}
	rec := rr.Recording(record.ModeGranule)

	// Round-trip through the wire encoding, then drop every Pred edge.
	log, err := relog.DecodeLog(relog.EncodeLog(rec.Log))
	if err != nil {
		t.Fatal(err)
	}
	stripped := 0
	for pid := 0; pid < log.Cores; pid++ {
		for _, c := range log.Chunks(pid) {
			stripped += len(c.Preds)
			c.Preds = nil
		}
	}
	if stripped == 0 {
		t.Fatal("recording has no Pred edges; corruption is vacuous")
	}
	// The corruption must be invisible to validation: that is precisely
	// why the explainer has to exist.
	if err := relog.Validate(log); err != nil {
		t.Fatalf("stripped log failed validation: %v", err)
	}

	res, err := ReplayExternal(rr, log, record.ModeGranule, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deterministic() {
		t.Fatal("stripped log replayed deterministically; expected divergence")
	}
	d := res.Divergence
	if d == nil {
		t.Fatal("diverged replay carries no Divergence")
	}
	if d.Kind == "" {
		t.Error("Divergence.Kind empty")
	}
	if d.PID < 0 || d.PID >= log.Cores {
		t.Errorf("Divergence.PID = %d out of range", d.PID)
	}

	ex := obs.Correlate(tr.Events())
	if ex == nil || ex.Diverge == nil {
		t.Fatal("Correlate found no divergence in the merged stream")
	}
	if int(ex.Diverge.Core) != d.PID || ex.Diverge.CID != d.CID {
		t.Errorf("correlated diverge (core %d, cid %d) != Result.Divergence (core %d, cid %d)",
			ex.Diverge.Core, ex.Diverge.CID, d.PID, d.CID)
	}
	if ex.RecordChunk == nil {
		t.Error("no record-side chunk correlated for the divergence")
	}
}

// TestReplayTracedDeterministic checks the happy path: an intact log
// replayed with a tracer attached produces no divergence and a stream
// with both record- and replay-side events.
func TestReplayTracedDeterministic(t *testing.T) {
	opts := DefaultOptions()
	opts.Seed = 1
	tr := obs.New("clean")
	opts.Tracer = tr
	rr, err := Record(trace.MessagePassing(), opts, record.ModeGranule)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ReplayTraced(rr, record.ModeGranule, 0, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deterministic() {
		t.Fatalf("clean replay diverged: %v", res.Divergence)
	}
	if res.Divergence != nil {
		t.Errorf("deterministic replay carries Divergence %v", res.Divergence)
	}
	sides := map[obs.Side]int{}
	for _, e := range tr.Events() {
		sides[e.Side]++
	}
	if sides[obs.SideRecord] == 0 || sides[obs.SideReplay] == 0 {
		t.Fatalf("merged stream missing a side: %v", sides)
	}
	if obs.Correlate(tr.Events()) != nil {
		t.Error("clean stream produced an explanation")
	}
	// Replay stall cycles must have accumulated into the run's stats.
	if snap := rr.Stats.Snapshot(); snap != nil {
		found := false
		for _, h := range snap.Histograms {
			if h.Name == "replay.stall_cycles" && h.Count > 0 {
				found = true
			}
		}
		if !found {
			t.Error("replay.stall_cycles histogram empty after traced replay")
		}
	}
}

// TestRestoreDurations: a decoded log gets each chunk's duration from
// the reference chunk with the same dense CID; a chunk the reference
// does not have gets zero.
func TestRestoreDurations(t *testing.T) {
	ref := relog.NewLog(2)
	for pid := 0; pid < 2; pid++ {
		for cid := int64(0); cid < 3; cid++ {
			ref.Append(&relog.Chunk{PID: pid, CID: cid, Duration: sim.Cycle(10*pid + int(cid) + 1)})
		}
	}
	log := relog.NewLog(2)
	for pid := 0; pid < 2; pid++ {
		for cid := int64(0); cid < 4; cid++ {
			log.Append(&relog.Chunk{PID: pid, CID: cid, Duration: 99})
		}
	}
	restoreDurations(log, ref)
	for pid := 0; pid < 2; pid++ {
		for _, c := range log.Chunks(pid) {
			want := sim.Cycle(0)
			if c.CID < 3 {
				want = sim.Cycle(10*pid + int(c.CID) + 1)
			}
			if c.Duration != want {
				t.Fatalf("chunk %d/%d duration %d, want %d", pid, c.CID, c.Duration, want)
			}
		}
	}
}
