package replay

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"pacifier/internal/coherence"
	"pacifier/internal/prof"
	"pacifier/internal/relog"
	"pacifier/internal/sim"
)

// ErrBadState is the sentinel every RestoreState rejection wraps: a
// State that is inconsistent with the stepper's log and workload (wrong
// core count, a cursor past the end of a core's chunks, a chunk count
// that disagrees with the cursors, an out-of-range scan position).
// Test with errors.Is.
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
	// re-derived from the workload as memOps[pid][sn-1].
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
		ChunkEnd:      make([]ChunkEndState, 0, len(r.chunkEnd)),
		SSB:           make([]SSBState, 0, len(r.ssb)),
		Mem:           make([]MemState, 0, len(r.mem)),
		Result:        cloneResult(r.res),
	}
	for i, c := range r.coreClock {
		st.CoreClock[i] = int64(c)
	}
	for ref, end := range r.chunkEnd {
		st.ChunkEnd = append(st.ChunkEnd, ChunkEndState{PID: ref.PID, CID: ref.CID, End: int64(end)})
	}
	sort.Slice(st.ChunkEnd, func(i, j int) bool {
		a, b := st.ChunkEnd[i], st.ChunkEnd[j]
		if a.PID != b.PID {
			return a.PID < b.PID
		}
		return a.CID < b.CID
	})
	for k, e := range r.ssb {
		st.SSB = append(st.SSB, SSBState{
			PID: k.pid, CID: k.cid, Offset: k.offset,
			SN: int64(e.sn), Preds: append([]relog.ChunkRef(nil), e.preds...),
		})
	}
	sort.Slice(st.SSB, func(i, j int) bool {
		a, b := st.SSB[i], st.SSB[j]
		if a.PID != b.PID {
			return a.PID < b.PID
		}
		if a.CID != b.CID {
			return a.CID < b.CID
		}
		return a.Offset < b.Offset
	})
	for addr, v := range r.mem {
		st.Mem = append(st.Mem, MemState{Addr: uint64(addr), Val: v})
	}
	sort.Slice(st.Mem, func(i, j int) bool { return st.Mem[i].Addr < st.Mem[j].Addr })
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
	for i, c := range st.CoreClock {
		r.coreClock[i] = sim.Cycle(c)
	}
	r.chunkEnd = make(map[relog.ChunkRef]sim.Cycle, len(st.ChunkEnd))
	for _, ce := range st.ChunkEnd {
		r.chunkEnd[relog.ChunkRef{PID: ce.PID, CID: ce.CID}] = sim.Cycle(ce.End)
	}
	r.ssb = make(map[ssbKey]ssbEntry, len(st.SSB))
	for _, e := range st.SSB {
		op, _ := s.Op(e.PID, SN(e.SN))
		r.ssb[ssbKey{e.PID, e.CID, e.Offset}] = ssbEntry{
			op: op, sn: SN(e.SN), preds: append([]relog.ChunkRef(nil), e.Preds...),
		}
	}
	r.mem = make(map[coherence.Addr]uint64, len(st.Mem))
	for _, m := range st.Mem {
		r.mem[coherence.Addr(m.Addr)] = m.Val
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
	for _, e := range st.SSB {
		if _, ok := s.Op(e.PID, SN(e.SN)); !ok {
			return badState("SSB entry core %d sn %d outside workload", e.PID, e.SN)
		}
	}
	return nil
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
