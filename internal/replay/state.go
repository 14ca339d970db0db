package replay

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"slices"

	"pacifier/internal/coherence"
	"pacifier/internal/prof"
	"pacifier/internal/relog"
	"pacifier/internal/sim"
	"pacifier/internal/trace"
)

// ErrBadState is the sentinel every RestoreState rejection wraps: a
// State that is inconsistent with the stepper's log and workload (wrong
// core count, a cursor past the end of a core's chunks, a chunk count
// that disagrees with the cursors, an out-of-range scan position, a
// chunk_end or SSB entry that is not an executed chunk's, a memory word
// no store op targets). Test with errors.Is.
var ErrBadState = errors.New("replay: invalid state")

func badState(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrBadState}, args...)...)
}

// State is the complete mutable state of a Stepper at a position
// between two steps: per-core cursors and clocks, the chunk-completion
// table (the directory the ready scan consults), the simulated store
// buffer, the memory image, the scheduler's partially-unrolled scan,
// the RNG cursor, the accumulated Result, and the metric registries.
//
// Everything immutable across a run — the log, the workload's memory
// ops, the recorded outcomes, the mesh — is deliberately absent: a
// State is only meaningful against the (log, workload, config) triple
// it was captured from, which the debugger re-derives deterministically
// from the run's seed. All slices are sorted, so the JSON encoding of a
// State is byte-deterministic and Capture∘Restore∘Capture is a fixed
// point.
type State struct {
	SchemaVersion int `json:"schema_version"`

	// Position in the schedule.
	Steps     int64 `json:"steps"`
	Remaining int   `json:"remaining"`
	Finished  bool  `json:"finished"`

	// Scheduler scan state (the partially-unrolled round).
	ScanStart int    `json:"scan_start"`
	ScanK     int    `json:"scan_k"`
	Progress  bool   `json:"progress"`
	RoundOpen bool   `json:"round_open"`
	RNG       uint64 `json:"rng"`

	// Per-core replay machine state.
	Cursor    []int   `json:"cursor"`
	CoreClock []int64 `json:"core_clock"`

	// ChunkEnd is the done set: completion cycle per executed chunk,
	// sorted by (PID, CID).
	ChunkEnd []ChunkEndState `json:"chunk_end"`
	// SSB is the simulated store buffer of parked delayed stores, sorted
	// by (PID, CID, Offset). The parked trace.Op is not serialized: it is
	// re-derived from the workload by its SN.
	SSB []SSBState `json:"ssb"`
	// Mem is the replayed memory image, sorted by address.
	Mem []MemState `json:"mem"`

	// Result is a deep copy of the accumulated replay result.
	Result *Result `json:"result"`

	// Prof is the private profiling registry (nil when Config.Profile is
	// off); Stall the shared-registry stall histogram (nil when
	// Config.Stats is nil).
	Prof  *sim.Snapshot  `json:"prof,omitempty"`
	Stall *sim.Histogram `json:"stall,omitempty"`
}

// ChunkEndState is one entry of the chunk-completion table.
type ChunkEndState struct {
	PID int   `json:"pid"`
	CID int64 `json:"cid"`
	End int64 `json:"end"`
}

// SSBState is one parked delayed store.
type SSBState struct {
	PID    int              `json:"pid"`
	CID    int64            `json:"cid"`
	Offset int32            `json:"offset"`
	SN     int64            `json:"sn"`
	Preds  []relog.ChunkRef `json:"preds,omitempty"`
}

// MemState is one memory word.
type MemState struct {
	Addr uint64 `json:"addr"`
	Val  uint64 `json:"val"`
}

// CaptureState snapshots the stepper's complete mutable state. The
// returned State shares nothing with the stepper: restoring it later —
// even into a different Stepper over the same (log, workload, config) —
// reproduces the exact remaining schedule.
func (s *Stepper) CaptureState() *State {
	r := s.r
	st := &State{
		SchemaVersion: sim.SchemaVersion,
		Steps:         s.steps,
		Remaining:     s.remaining,
		Finished:      s.finished,
		ScanStart:     s.scanStart,
		ScanK:         s.scanK,
		Progress:      s.progress,
		RoundOpen:     s.roundOpen,
		RNG:           r.rng.State(),
		Cursor:        append([]int(nil), r.cursor...),
		CoreClock:     make([]int64, len(r.coreClock)),
		ChunkEnd:      make([]ChunkEndState, 0, s.steps),
		SSB:           make([]SSBState, 0, len(r.ssb)),
		Mem:           r.mem.sorted(),
		Result:        cloneResult(r.res),
	}
	for i, c := range r.coreClock {
		st.CoreClock[i] = int64(c)
	}
	for pid, n := range r.cursor {
		for cid, end := range r.chunkEnd[pid][:n] {
			st.ChunkEnd = append(st.ChunkEnd, ChunkEndState{PID: pid, CID: int64(cid), End: int64(end)})
		}
	}
	keys := make([]ssbKey, 0, len(r.ssb))
	for k := range r.ssb {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, compareSSBKeys)
	for _, k := range keys {
		e := r.ssb[k]
		st.SSB = append(st.SSB, SSBState{
			PID: k.pid, CID: k.cid, Offset: k.offset,
			SN: int64(e.sn), Preds: append([]relog.ChunkRef(nil), e.preds...),
		})
	}
	if r.profStats != nil {
		st.Prof = r.profStats.Snapshot()
	}
	if r.hStall != nil {
		h := *r.hStall
		st.Stall = &h
	}
	return st
}

// RestoreState rewinds (or fast-forwards) the stepper to a previously
// captured State. The stepper must be over the same (log, workload,
// config) triple the State was captured from. Every field the scheduler
// indexes with is validated first; a State that fails a check is
// rejected with an error wrapping ErrBadState and leaves the stepper
// untouched. After restoring, stepping produces exactly the sequence
// the original run produced from that position.
//
// Process-global telemetry counters (pacifier_replay_*) are monotone
// event counts and are deliberately not rewound: after a seek they
// keep counting every chunk the debugger re-executes.
func (s *Stepper) RestoreState(st *State) error {
	if err := s.checkState(st); err != nil {
		return err
	}
	r := s.r
	s.steps = st.Steps
	s.remaining = st.Remaining
	s.finished = st.Finished
	s.scanStart = st.ScanStart
	s.scanK = st.ScanK
	s.progress = st.Progress
	s.roundOpen = st.RoundOpen
	r.rng.SetState(st.RNG)
	copy(r.cursor, st.Cursor)
	for pid := range r.pos {
		r.pos[pid] = r.walkStart(pid)
	}
	for i, c := range st.CoreClock {
		r.coreClock[i] = sim.Cycle(c)
	}
	for _, ce := range st.ChunkEnd {
		r.chunkEnd[ce.PID][ce.CID] = sim.Cycle(ce.End)
	}
	r.ssb = make(map[ssbKey]ssbEntry, len(st.SSB))
	for _, e := range st.SSB {
		op, _ := s.Op(e.PID, SN(e.SN))
		r.ssb[ssbKey{e.PID, e.CID, e.Offset}] = ssbEntry{
			op: op, sn: SN(e.SN), preds: append([]relog.ChunkRef(nil), e.Preds...),
		}
	}
	r.mem.clear()
	for _, m := range st.Mem {
		r.mem.set(coherence.Addr(m.Addr), m.Val)
	}
	r.res = cloneResult(st.Result)
	if st.Prof != nil {
		// Lat accumulators rebind lazily when the registry pointer
		// changes, so swapping the registry is all a rewind needs.
		r.profStats = st.Prof.RestoreStats()
	} else if r.profStats != nil {
		r.profStats = sim.NewStats()
	}
	if r.res.Prof != nil && r.profStats != nil {
		// Result.Prof carries an unexported attribution total that does
		// not survive the JSON encoding; re-decode it from the restored
		// registry rather than trusting the serialized copy.
		r.res.Prof = prof.FromStats(r.profStats)
	}
	if r.hStall != nil {
		if st.Stall != nil {
			name := r.hStall.Name
			*r.hStall = *st.Stall
			r.hStall.Name = name
		} else {
			*r.hStall = sim.Histogram{Name: r.hStall.Name}
		}
	}
	return nil
}

// checkState validates a State against the stepper's log and workload
// without modifying the stepper.
func (s *Stepper) checkState(st *State) error {
	r := s.r
	cores := r.log.Cores
	if st == nil {
		return badState("nil state")
	}
	if st.SchemaVersion != sim.SchemaVersion {
		return badState("schema %d, want %d", st.SchemaVersion, sim.SchemaVersion)
	}
	if len(st.Cursor) != cores || len(st.CoreClock) != cores {
		return badState("covers %d cores, log has %d", len(st.Cursor), cores)
	}
	left := 0
	for pid, c := range st.Cursor {
		n := len(r.log.Chunks(pid))
		if c < 0 || c > n {
			return badState("core %d cursor %d outside [0,%d]", pid, c, n)
		}
		left += n - c
	}
	if st.Remaining != left {
		return badState("remaining %d, cursors leave %d chunks", st.Remaining, left)
	}
	if st.Steps != int64(r.log.TotalChunks()-left) {
		return badState("steps %d, cursors have executed %d chunks", st.Steps, r.log.TotalChunks()-left)
	}
	if st.ScanStart < 0 || st.ScanStart >= cores {
		return badState("scan start %d outside [0,%d)", st.ScanStart, cores)
	}
	if st.ScanK < 0 || st.ScanK > cores {
		return badState("scan position %d outside [0,%d]", st.ScanK, cores)
	}
	if len(st.ChunkEnd) != int(st.Steps) {
		return badState("%d chunk_end entries for %d executed chunks", len(st.ChunkEnd), st.Steps)
	}
	for i, ce := range st.ChunkEnd {
		if ce.PID < 0 || ce.PID >= cores || ce.CID < 0 || ce.CID >= int64(st.Cursor[ce.PID]) {
			return badState("chunk_end entry %d/%d is not an executed chunk", ce.PID, ce.CID)
		}
		if i > 0 {
			prev := st.ChunkEnd[i-1]
			if cmp.Or(cmp.Compare(prev.PID, ce.PID), cmp.Compare(prev.CID, ce.CID)) >= 0 {
				return badState("chunk_end entry %d/%d out of (pid, cid) order or repeated", ce.PID, ce.CID)
			}
		}
	}
	for i, e := range st.SSB {
		if e.PID < 0 || e.PID >= cores || e.CID < 0 || e.CID >= int64(st.Cursor[e.PID]) {
			return badState("SSB entry %d/%d is not in an executed chunk", e.PID, e.CID)
		}
		c := r.log.Chunks(e.PID)[e.CID]
		d := delayedStore(c, e.Offset)
		if d == nil || e.SN != int64(c.StartSN)+int64(e.Offset) || !slices.Equal(e.Preds, d.Pred) {
			return badState("SSB entry %d/%d offset %d sn %d is not a delayed store of that chunk",
				e.PID, e.CID, e.Offset, e.SN)
		}
		if i > 0 {
			prev := st.SSB[i-1]
			if compareSSBKeys(ssbKey{prev.PID, prev.CID, prev.Offset}, ssbKey{e.PID, e.CID, e.Offset}) >= 0 {
				return badState("SSB entry %d/%d offset %d out of order or repeated", e.PID, e.CID, e.Offset)
			}
		}
	}
	targets := r.storeTargets()
	for _, m := range st.Mem {
		if _, ok := slices.BinarySearch(targets, coherence.Addr(m.Addr)); !ok {
			return badState("memory word %#x is not the target of any store op", m.Addr)
		}
	}
	return nil
}

// delayedStore returns c's D_set entry for a delayed store at offset,
// nil if there is none.
func delayedStore(c *relog.Chunk, offset int32) *relog.DEntry {
	for i := range c.DSet {
		if d := &c.DSet[i]; d.Offset == offset && !d.IsLoad {
			return d
		}
	}
	return nil
}

// storeTargets returns the sorted addresses the workload's store ops
// target, building the list on first use. Replay writes no other word,
// so these bound the memory image.
func (r *replayer) storeTargets() []coherence.Addr {
	if r.storeAddrs == nil {
		addrs := []coherence.Addr{}
		for _, th := range r.threads {
			for _, op := range th {
				switch op.Kind {
				case trace.Write, trace.Acquire, trace.Release:
					addrs = append(addrs, op.Addr)
				}
			}
		}
		slices.Sort(addrs)
		r.storeAddrs = slices.Compact(addrs)
	}
	return r.storeAddrs
}

// walkStart returns the index in core pid's thread just past the last
// memory op of the chunks below its cursor: the SNs of a core's chunks
// tile 1..n, so that op is the one with the last such chunk's EndSN.
func (r *replayer) walkStart(pid int) int {
	n := r.cursor[pid]
	if n == 0 {
		return 0
	}
	last := r.log.Chunks(pid)[n-1].EndSN
	if last == 0 {
		return 0
	}
	return r.opIndex()[pid][last-1] + 1
}

// cloneResult deep-copies a Result so captured states stay immutable as
// the live replay keeps accumulating.
func cloneResult(in *Result) *Result {
	if in == nil {
		return &Result{}
	}
	out := *in
	out.Mismatches = append([]Mismatch(nil), in.Mismatches...)
	out.Defects = append([]Defect(nil), in.Defects...)
	if in.Divergence != nil {
		d := *in.Divergence
		out.Divergence = &d
	}
	if in.Prof != nil {
		p := *in.Prof
		out.Prof = &p
	}
	return &out
}

// Marshal renders the state as deterministic JSON: struct-field order is
// fixed and every slice is sorted at capture time, so two captures of
// identical machine state are byte-identical. The debugger's checkpoint
// files and snapshot hashes are built on this encoding.
func (st *State) Marshal() ([]byte, error) { return json.Marshal(st) }

// UnmarshalState decodes a State produced by Marshal.
func UnmarshalState(b []byte) (*State, error) {
	st := &State{}
	if err := json.Unmarshal(b, st); err != nil {
		return nil, err
	}
	return st, nil
}
