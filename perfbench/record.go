package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"pacifier"
	"pacifier/internal/machine"
	"pacifier/internal/relog"
)

// recordFFT is record-fft16: each operation records one fft run with 16
// threads of 2000 ops under Granule alone. Nearly all host time is in the
// machine layers plus one recorder, and replay does no work in the
// operation, so it shows machine-layer and allocation gains and shows
// that replay changes cost nothing here.
type recordFFT struct {
	seed   uint64
	inputs []*pacifier.Workload
}

const (
	fftThreads = 16
	fftOps     = 2000
	// fftInputs distinct inputs, from seed+i, are recorded round-robin.
	// One round of them fixes the simulated metrics of a seed.
	fftInputs = 32
)

func (r *recordFFT) setup(seed uint64, sp *spans) error {
	r.seed = seed
	for i := 0; i < fftInputs; i++ {
		id := sp.begin("trace.generate", -1)
		w, err := pacifier.App("fft", fftThreads, fftOps, seed+uint64(i))
		if err != nil {
			return err
		}
		sp.end(id, int64(w.MemOps()))
		r.inputs = append(r.inputs, w)
	}
	return nil
}

func (r *recordFFT) run(deadline time.Time, sp *spans) (*phase, error) {
	ph := newPhase()
	var counts simCounts
	var newMB, ratio float64
	var diverged int
	verified := make([][]byte, fftInputs) // Granule log bytes of each input's first recording
	for i := 0; i < fftInputs || time.Now().Before(deadline); i++ {
		k := i % fftInputs
		w, seed := r.inputs[k], r.seed+uint64(k)
		first := i < fftInputs
		if sp != nil && first {
			mb, err := probeMachineNew(w, seed, sp)
			if err != nil {
				return nil, err
			}
			newMB += mb
		}

		m0 := readMem()
		id := sp.begin("pacifier.Record", -1)
		c0 := cpuTime()
		run, err := pacifier.Record(w, pacifier.Options{Seed: seed, Atomic: true}, pacifier.Granule)
		d := cpuTime() - c0
		sp.end(id, 0)
		ph.alloc = ph.alloc.add(readMem().sub(m0))
		if err != nil {
			return nil, fmt.Errorf("record fft seed %d: %w", seed, err)
		}
		ph.attempted++
		ph.opMS = append(ph.opMS, ms(d))
		ph.busy += d
		ph.memops += run.MemOps()

		if !first {
			// The simulator is deterministic, so a later recording of
			// an input must give the log the first one verified. This
			// check allocates little, so the garbage collections a
			// Record pays for stay in step with its own allocation.
			excludeFromProfile("check", func() {
				id := sp.begin("relog.encode", -1)
				blob, err := run.EncodedLog(pacifier.Granule)
				sp.end(id, int64(len(blob)))
				if err != nil {
					ph.failed++
					ph.problem("seed %d: encode: %v", seed, err)
				} else if !bytes.Equal(blob, verified[k]) {
					ph.failed++
					ph.problem("seed %d: log differs from the verified first recording", seed)
				}
			})
			continue
		}

		// The full check allocates a good deal (a replay among other
		// things); its garbage is collected here, outside the timed
		// region, so that the next Record's time does not include it.
		var c fftCheck
		excludeFromProfile("check", func() {
			c = r.check(ph, run, seed, sp)
			runtime.GC()
		})
		verified[k] = c.blob
		if c.bad {
			ph.failed++
		}
		if c.diverged {
			diverged++
		}
		ph.simMemops += run.MemOps()
		ph.simCycles += run.NativeCycles()
		ph.simLogBytes += run.LogStats(pacifier.Granule).TotalBytes
		ph.slowdowns = append(ph.slowdowns, c.slowdown)
		ratio += c.ratio / fftInputs
		if sp != nil {
			counts.add(run.Metrics(), run.MemOps(), run.LogStats(pacifier.Granule).Chunks)
		}
	}
	if sp != nil {
		counts.into(ph.layer)
		ph.layer["machine.new_alloc_mb"] = newMB / fftInputs
		ph.layer["relog.compress_ratio"] = ratio
		ph.layer["replay.fail_frac.gra"] = float64(diverged) / fftInputs
		ph.layer["replay.fail_frac"] = ph.layer["replay.fail_frac.gra"]
	}
	return ph, nil
}

// fftCheck is the outcome of checking one recording.
type fftCheck struct {
	blob     []byte  // the encoded Granule log
	slowdown float64 // Granule replay slowdown, a fraction
	ratio    float64 // raw over compressed log bytes
	diverged bool    // the replay did not reproduce the run
	bad      bool    // any check failed
}

// check verifies one recording: the Granule log validates, survives
// encode→decode→encode and compress→decompress byte for byte, and
// replays deterministically.
func (r *recordFFT) check(ph *phase, run *pacifier.Run, seed uint64, sp *spans) (c fftCheck) {
	nProblems := ph.wrong
	defer func() { c.bad = ph.wrong > nProblems }()
	id := sp.begin("relog.encode", -1)
	blob, err := run.EncodedLog(pacifier.Granule)
	sp.end(id, int64(len(blob)))
	if err != nil {
		ph.problem("seed %d: encode: %v", seed, err)
		return c
	}
	c.blob = blob
	id = sp.begin("relog.decode", -1)
	log, err := relog.DecodeLog(blob)
	sp.end(id, int64(len(blob)))
	if err != nil {
		ph.problem("seed %d: decode: %v", seed, err)
		return c
	}
	id = sp.begin("relog.validate", -1)
	err = relog.Validate(log)
	sp.end(id, int64(log.TotalChunks()))
	if err != nil {
		ph.problem("seed %d: validate: %v", seed, err)
	}
	id = sp.begin("relog.encode", -1)
	again := relog.EncodeLog(log)
	sp.end(id, int64(len(again)))
	if !bytes.Equal(again, blob) {
		ph.problem("seed %d: encode→decode→encode changed the log bytes", seed)
	}
	id = sp.begin("relog.compress", -1)
	z := relog.Compress(blob)
	sp.end(id, int64(len(blob)))
	c.ratio = float64(len(blob)) / float64(len(z))
	if back, err := relog.Decompress(z); err != nil || !bytes.Equal(back, blob) {
		ph.problem("seed %d: compress→decompress changed the log bytes (%v)", seed, err)
	}
	rep, err := run.Replay(pacifier.Granule)
	if err != nil {
		ph.problem("seed %d: replay: %v", seed, err)
		c.diverged = true
		return c
	}
	if !rep.Deterministic() || rep.OpsReplayed != run.MemOps() {
		ph.problem("seed %d: replay diverged: %d/%d ops, %d mismatches, %d defects",
			seed, rep.OpsReplayed, run.MemOps(), rep.MismatchCount, rep.DefectCount)
		c.diverged = true
	}
	c.slowdown = run.Slowdown(rep)
	return c
}

// probeMachineNew times machine.New on an input with a NopObserver: the
// cost of building the machine, apart from running it. It returns the
// megabytes allocated.
func probeMachineNew(w *pacifier.Workload, seed uint64, sp *spans) (float64, error) {
	var mb float64
	var err error
	excludeFromProfile("probe", func() {
		cfg := machine.DefaultConfig(len(w.Threads))
		cfg.Seed = seed
		cfg.Mem.Atomic = true
		m0 := readMem()
		id := sp.begin("machine.new", -1)
		_, err = machine.New(cfg, w, machine.NopObserver{})
		sp.end(id, 0)
		mb = float64(readMem().sub(m0).bytes) / (1 << 20)
	})
	return mb, err
}
