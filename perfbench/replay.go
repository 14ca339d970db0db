package main

import (
	"fmt"
	"math/rand"
	"time"

	"pacifier"
	"pacifier/internal/core"
	"pacifier/internal/debug"
	"pacifier/internal/record"
	"pacifier/internal/relog"
	"pacifier/internal/replay"
)

// replayVerify is replay-verify: set-up records Granule logs for four
// apps at 16 and 64 cores and encodes them; each round replays every log
// from its bytes (decode, validate and a verified replay) replaysPerLog
// times, and between rounds a debug session on a 64-core log seeks to a
// seeded random position and steps back one chunk. The operation whose
// time op_ms reports is one round of replays: single replays of logs this
// different in size would put the median on the edge between two
// clusters. It exercises only relog's read side, replay and
// debug, not the machine. The 16-core logs are dominated by
// replay.NewStepper and the 64-core logs by Step, so a set-up fix and a
// stepping fix each show here.
type replayVerify struct {
	seed uint64
	logs []replayInput
	sess *debug.Session
	// ref holds SnapshotHash at sampled positions, reached by stepping
	// from position 0; seeks must land on the same hashes.
	ref       map[int64]string
	positions []int64
}

type replayInput struct {
	rr   *core.RunResult
	blob []byte
}

var (
	replayApps  = []string{"fft", "cholesky", "radix", "water-nsq"}
	replayCores = []int{16, 64}
)

const (
	replayOps = 2000
	// replaysPerLog is how often a round replays each log. A round that
	// spans about two garbage collections varies less with where one
	// falls than a round that spans about one.
	replaysPerLog = 2
	// seekSamples positions of the debug log get reference hashes.
	seekSamples = 32
)

func (r *replayVerify) setup(seed uint64, sp *spans) error {
	r.seed = seed
	var debugIdx []int
	for _, app := range replayApps {
		for _, n := range replayCores {
			s := seed + uint64(len(r.logs))
			id := sp.begin("trace.generate", -1)
			w, err := pacifier.App(app, n, replayOps, s)
			if err != nil {
				return err
			}
			sp.end(id, int64(w.MemOps()))
			opts := core.DefaultOptions()
			opts.Seed = s
			id = sp.begin("core.Record", -1)
			rr, err := core.Record(w, opts, record.ModeGranule)
			sp.end(id, rr.MemOps)
			if err != nil {
				return fmt.Errorf("record %s/p%d: %w", app, n, err)
			}
			id = sp.begin("relog.encode", -1)
			blob := relog.EncodeLog(rr.Recording(record.ModeGranule).Log)
			sp.end(id, int64(len(blob)))
			if n == 64 {
				debugIdx = append(debugIdx, len(r.logs))
			}
			r.logs = append(r.logs, replayInput{rr, blob})
		}
	}

	// The debug session opens on a 64-core log chosen by the seed, as
	// Run.DebugSession does: decode, validate, open.
	in := r.logs[debugIdx[seed%uint64(len(debugIdx))]]
	log, err := relog.DecodeLog(in.blob)
	if err != nil {
		return err
	}
	if err := relog.Validate(log); err != nil {
		return err
	}
	id := sp.begin("debug.open", -1)
	r.sess, err = core.NewDebugSession(in.rr, log, record.ModeGranule, 0)
	sp.end(id, 0)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	total := r.sess.Total()
	r.ref = map[int64]string{}
	for i := 0; i < seekSamples; i++ {
		p := 1 + rng.Int63n(total)
		r.positions = append(r.positions, p)
		r.ref[p], r.ref[p-1] = "", ""
	}
	for pos := int64(0); pos <= total; pos++ {
		if _, ok := r.ref[pos]; ok {
			h, err := r.sess.SnapshotHash()
			if err != nil {
				return err
			}
			r.ref[pos] = h
		}
		if pos < total {
			r.sess.StepN(1)
		}
	}
	if r.sess.Pos() != total {
		return fmt.Errorf("debug session stopped at %d of %d chunks", r.sess.Pos(), total)
	}
	return nil
}

func (r *replayVerify) run(deadline time.Time, sp *spans) (*phase, error) {
	ph := newPhase()
	rng := rand.New(rand.NewSource(int64(r.seed) + 1))
	var stateKB float64
	var nSeeks, replays, diverged int64
	// Traced only: NewStepper's time and bytes per log, probed after the
	// log's first replay, and the totals that split replay time into
	// set-up and stepping.
	setupTime := make([]time.Duration, len(r.logs))
	var setupBytes uint64
	var replayTime, replaySetup time.Duration
	var replayChunks int64
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		var roundTime time.Duration
		for k := 0; k < replaysPerLog*len(r.logs); k++ {
			i := k % len(r.logs)
			in, first := r.logs[i], round == 0 && k < len(r.logs)
			m0 := readMem()
			id := sp.begin("ReplayLog", -1)
			c0 := cpuTime()
			res, log, rd, err := replayBlob(in, sp, id)
			d := cpuTime() - c0
			sp.end(id, 0)
			ph.alloc = ph.alloc.add(readMem().sub(m0))
			if sp != nil && err == nil {
				if first {
					t, b, perr := probeStepper(in, log, sp)
					if perr != nil {
						return nil, fmt.Errorf("probe NewStepper %s: %w", in.rr.Workload.Name, perr)
					}
					setupTime[i] = t
					setupBytes += b
				}
				replayTime += rd
				replaySetup += setupTime[i]
				replayChunks += int64(log.TotalChunks())
			}
			ph.attempted++
			replays++
			ph.memops += in.rr.MemOps
			roundTime += d
			if err != nil {
				ph.failed++
				ph.problem("replay %s: %v", in.rr.Workload.Name, err)
			} else if !res.Deterministic() || res.OpsReplayed != in.rr.MemOps {
				ph.failed++
				diverged++
				ph.problem("replay %s/p%d diverged: %d/%d ops, %d mismatches, %d defects",
					in.rr.Workload.Name, in.rr.Cores, res.OpsReplayed, in.rr.MemOps, res.MismatchCount, res.DefectCount)
			} else if first {
				ph.slowdowns = append(ph.slowdowns, in.rr.Slowdown(res))
			}
			if first {
				rec := in.rr.Recording(record.ModeGranule)
				ph.simMemops += in.rr.MemOps
				ph.simCycles += int64(in.rr.NativeCycles)
				ph.simLogBytes += rec.LogStats.TotalBytes
			}
		}

		// One seek and one reverse step per round, between rounds.
		p := r.positions[rng.Intn(len(r.positions))]
		for _, target := range []int64{p, p - 1} {
			kb, ok := r.seek(target, target < p, sp)
			ph.attempted++
			if !ok {
				ph.failed++
				ph.problem("debug seek to %d: snapshot hash differs from stepping there from 0", target)
			}
			stateKB += kb
			nSeeks++
		}
		ph.opMS = append(ph.opMS, ms(roundTime))
		ph.busy += roundTime
	}
	if sp != nil {
		var counts simCounts
		for _, in := range r.logs {
			rec := in.rr.Recording(record.ModeGranule)
			counts.add(in.rr.Stats.Snapshot(), in.rr.MemOps, rec.LogStats.Chunks)
		}
		counts.into(ph.layer)
		ph.layer["debug.state_kb"] = stateKB / float64(nSeeks)
		ph.layer["replay.setup_alloc_mb"] = float64(setupBytes) / float64(len(r.logs)) / (1 << 20)
		if replayTime > 0 {
			ph.layer["replay.setup_share"] = float64(replaySetup) / float64(replayTime)
			ph.layer["replay.step_ns_per_chunk"] = float64(replayTime-replaySetup) / float64(replayChunks)
		}
		ph.layer["replay.fail_frac.gra"] = float64(diverged) / float64(replays)
		ph.layer["replay.fail_frac"] = ph.layer["replay.fail_frac.gra"]
	}
	return ph, nil
}

// replayBlob is one operation: what Run.ReplayLog does with an encoded
// log, which is decode, validate and core.ReplayExternal. It returns the
// decoded log, whose chunk durations the replay restored, and the
// duration of the replay span (0 untraced).
func replayBlob(in replayInput, sp *spans, parent int) (*replay.Result, *relog.Log, time.Duration, error) {
	id := sp.begin("relog.decode", parent)
	log, err := relog.DecodeLog(in.blob)
	sp.end(id, int64(len(in.blob)))
	if err != nil {
		return nil, nil, 0, err
	}
	id = sp.begin("relog.validate", parent)
	err = relog.Validate(log)
	sp.end(id, int64(log.TotalChunks()))
	if err != nil {
		return nil, nil, 0, err
	}
	id = sp.begin("core.ReplayExternal", parent)
	res, err := core.ReplayExternal(in.rr, log, record.ModeGranule, nil)
	d := sp.end(id, int64(log.TotalChunks()))
	return res, log, d, err
}

// probeStepper times replay.NewStepper, the set-up part of a replay, on
// a log a replay has already restored, with the configuration
// core.ReplayExternal passes. It returns the wall time and the bytes
// allocated.
func probeStepper(in replayInput, log *relog.Log, sp *spans) (time.Duration, uint64, error) {
	var d time.Duration
	var alloc uint64
	var err error
	excludeFromProfile("probe", func() {
		m0 := readMem()
		id := sp.begin("replay.setup", -1)
		_, err = replay.NewStepper(log, in.rr.Workload, in.rr.Records,
			replay.Config{Stats: in.rr.Stats, Profile: in.rr.Profiled})
		d = sp.end(id, 0)
		alloc = readMem().sub(m0).bytes
	})
	return d, alloc, err
}

// seek moves the debug session to target, by SeekTo or by ReverseStep,
// and checks its snapshot hash against the one reached by stepping from
// 0. Traced, it also times one state capture and restore at the target.
// It returns the state size in KB (traced only) and whether the hash
// matched. The span's work count is the chunks the seek re-executed.
func (r *replayVerify) seek(target int64, reverse bool, sp *spans) (float64, bool) {
	from := r.sess.Pos()
	start := from
	if target < from {
		start = target - target%r.sess.Interval()
	}
	id := sp.begin("debug.seek", -1)
	var err error
	if reverse {
		err = r.sess.ReverseStep(from - target)
	} else {
		err = r.sess.SeekTo(target)
	}
	sp.end(id, target-start)
	if err != nil {
		return 0, false
	}
	var kb float64
	ok := true
	excludeFromProfile("check", func() {
		if sp != nil {
			kb, ok = captureRestore(r.sess, sp)
		}
		h, err := r.sess.SnapshotHash()
		ok = ok && err == nil && h == r.ref[target]
	})
	return kb, ok
}

// captureRestore times the checkpoint path of a seek at the current
// position: CaptureState+Marshal, then UnmarshalState+RestoreState of the
// same bytes, which leaves the session where it was.
func captureRestore(s *debug.Session, sp *spans) (float64, bool) {
	st := s.Stepper()
	id := sp.begin("debug.capture", -1)
	b, err := st.CaptureState().Marshal()
	sp.end(id, int64(len(b)))
	if err != nil {
		return 0, false
	}
	id = sp.begin("debug.restore", -1)
	state, err := replay.UnmarshalState(b)
	if err == nil {
		err = st.RestoreState(state)
	}
	sp.end(id, int64(len(b)))
	return float64(len(b)) / 1024, err == nil
}
