package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"

	"pacifier"
	"pacifier/internal/harness"
	"pacifier/internal/record"
)

// paperEval is paper-eval: each pass is the 30-job set cmd/experiments
// runs by default (10 apps x {16, 32, 64} cores, 2000 ops, all seven
// modes co-recorded, replay and compression on) through harness.Run with
// one worker per CPU and no result cache. This is what reproducers run.
// It weighs the recorders heavily (seven per execution, including scvd
// for vol and crd) and covers the 64-core directory and NoC,
// relog.Compress, and the harness pool, where the slowest job sets the
// tail. An operation is one job.
type paperEval struct {
	seed   uint64
	specs  []harness.JobSpec
	memops []int64 // per spec, from generating its input
	// want is the Figure 11-13 text expected at this seed: the committed
	// experiments_output.txt at seed 1, else the first pass's own.
	want []byte
}

const (
	evalOps = 2000
	// expectedFigures is cmd/experiments' committed default output. It
	// predates the Figure 14 section the command now prints.
	expectedFigures = "experiments_output.txt"
)

var evalCores = []int{16, 32, 64}

func (e *paperEval) setup(seed uint64, sp *spans) error {
	e.seed = seed
	for _, app := range pacifier.Apps() {
		for _, n := range evalCores {
			// The harness generates each job's input itself; generating it
			// here as well gives the memop count its result must report.
			id := sp.begin("trace.generate", -1)
			w, err := pacifier.App(app, n, evalOps, seed)
			if err != nil {
				return err
			}
			sp.end(id, int64(w.MemOps()))
			e.memops = append(e.memops, int64(w.MemOps()))
			e.specs = append(e.specs, harness.JobSpec{
				Kind: "app", Name: app, Cores: n, Ops: evalOps, Seed: seed, Atomic: true,
				Modes: record.ModeNames(), Replay: true, Compress: true,
			})
		}
	}
	if seed == 1 {
		want, err := os.ReadFile(expectedFigures)
		if err != nil {
			return fmt.Errorf("expected figures: %w", err)
		}
		e.want = want
	}
	return nil
}

func (e *paperEval) run(deadline time.Time, sp *spans) (*phase, error) {
	ph := newPhase()
	workers := runtime.NumCPU()
	specs := e.specs
	if sp != nil {
		// The traced run also snapshots each job's metrics, for the
		// simulated event counts.
		specs = append([]harness.JobSpec(nil), e.specs...)
		for i := range specs {
			specs[i].CaptureMetrics = true
		}
		mb, err := e.probeMachines(sp)
		if err != nil {
			return nil, err
		}
		ph.layer["machine.new_alloc_mb"] = mb
	}
	modeRuns, modeFails := map[string]int64{}, map[string]int64{}
	var counts simCounts
	var busy, idle float64
	passes := 0
	for ; passes == 0 || time.Now().Before(deadline); passes++ {
		opts := harness.Options{Workers: workers}
		pass := sp.begin("harness.run", -1)
		if sp != nil {
			opts.Run = func(s harness.JobSpec) (*harness.Result, error) {
				id := sp.begin("harness.execute", pass)
				res, err := harness.Execute(s)
				sp.end(id, 0)
				return res, err
			}
		}
		m0 := readMem()
		t0, c0 := time.Now(), cpuTime()
		outs := harness.Run(specs, opts)
		wall, cpu := time.Since(t0), cpuTime()-c0
		ph.alloc = ph.alloc.add(readMem().sub(m0))
		sp.end(pass, 0)

		var passMemops int64
		var jobWall time.Duration
		for i, o := range outs {
			ph.opMS = append(ph.opMS, ms(o.Wall))
			jobWall += o.Wall
			ph.attempted++
			if o.Err != nil {
				ph.failed++
				ph.problem("job %s: %v", o.Spec.Label(), o.Err)
				continue
			}
			r := o.Result
			passMemops += r.MemOps
			jobFailed := false
			if r.MemOps != e.memops[i] {
				jobFailed = true
				ph.problem("job %s: %d memops, its input has %d", o.Spec.Label(), r.MemOps, e.memops[i])
			}
			// Replays of the other modes that fail verification are the
			// measured behaviour of those recorders, reported per mode;
			// Karma diverging under RC is the paper's point. Granule is
			// Pacifier's mechanism: its replay must reproduce the run.
			for _, m := range r.Modes {
				if m.Mode == "karma" {
					continue
				}
				modeRuns[m.Mode]++
				if m.Replay == nil || !m.Replay.Deterministic {
					modeFails[m.Mode]++
					if m.Mode == "gra" {
						jobFailed = true
						ph.problem("job %s: Granule replay failed verification", o.Spec.Label())
					}
				}
			}
			if jobFailed {
				ph.failed++
			}
			if passes == 0 {
				ph.simMemops += r.MemOps
				ph.simCycles += r.NativeCycles
				if g := r.Mode("gra"); g != nil {
					ph.simLogBytes += g.TotalBytes
					if g.Replay != nil {
						ph.slowdowns = append(ph.slowdowns, g.Replay.Slowdown)
					}
				}
				if sp != nil && r.Metrics != nil {
					chunks := 0
					if g := r.Mode("gra"); g != nil {
						chunks = g.Chunks
					}
					counts.add(r.Metrics, r.MemOps, chunks)
				}
			}
		}
		ph.memops += passMemops
		ph.busy += cpu
		capacity := float64(workers) * wall.Seconds()
		busy += jobWall.Seconds() / capacity
		// Jobs are dispatched as soon as a worker is free, so a worker's
		// idle time in a pass is the tail, after its last job.
		idle += (capacity - jobWall.Seconds()) / float64(workers)

		excludeFromProfile("check", func() { e.checkFigures(ph, outs) })
	}
	if sp != nil {
		counts.into(ph.layer)
		ph.layer["harness.worker_busy_frac"] = busy / float64(passes)
		ph.layer["harness.tail_idle_s"] = idle / float64(passes)
		for mode, n := range modeRuns {
			ph.layer["replay.fail_frac."+mode] = float64(modeFails[mode]) / float64(n)
		}
	}
	var runs, fails int64
	for _, mode := range record.ModeNames() {
		if n := modeRuns[mode]; n > 0 {
			fmt.Printf("paper-eval: %-7s replays failing verification: %d of %d\n", mode, modeFails[mode], n)
			runs, fails = runs+n, fails+modeFails[mode]
		}
	}
	fmt.Printf("paper-eval: fail_frac of non-Karma replays = %.4f (%d of %d)\n", float64(fails)/float64(runs), fails, runs)
	if sp != nil {
		ph.layer["replay.fail_frac"] = float64(fails) / float64(runs)
	}
	return ph, nil
}

// checkFigures renders Figures 11-13 from a pass and compares them with
// the expected text: experiments_output.txt at seed 1, and the first
// pass at any other seed.
func (e *paperEval) checkFigures(ph *phase, outs []harness.Outcome) {
	var got bytes.Buffer
	results := harness.Results(outs)
	for _, fig := range []int{11, 12, 13} {
		harness.FigureTables(&got, results, fig)
	}
	if e.want == nil {
		e.want = got.Bytes()
		return
	}
	if !bytes.Equal(got.Bytes(), e.want) {
		ph.problem("figures 11-13 differ from the expected text at seed %d", e.seed)
	}
}

// probeMachines times machine.New on each job's input, regenerated here
// so set-up need not keep 30 inputs alive. It returns the mean megabytes
// machine.New allocated.
func (e *paperEval) probeMachines(sp *spans) (float64, error) {
	var mb float64
	for _, s := range e.specs {
		w, err := pacifier.App(s.Name, s.Cores, s.Ops, s.Seed)
		if err != nil {
			return 0, err
		}
		x, err := probeMachineNew(w, s.Seed, sp)
		if err != nil {
			return 0, err
		}
		mb += x
	}
	return mb / float64(len(e.specs)), nil
}
