// Command perfbench is the repository's benchmark. It drives one of
// three workloads through the public functions of the layer packages,
// checks every output it produces, and prints its metrics by name and
// unit, ending with one JSON line:
//
//	perfbench --workload record-fft16 --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// measures the workload untraced for half the time and then traced (spans
// around every call into a layer, plus a CPU profile) for the other half,
// and prints the per-layer metrics and the tracing overhead. See
// README.md for what each metric means and which layer should move it.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"time"
)

// A run repeats its set-up at least setupMinReps times and until the
// set-ups have used setupMinCPU of CPU time (at most setupMaxReps times);
// setup_s is the median. A set-up of a tenth of a second, taken only five
// times, moved by a quarter between runs of the same code.
const (
	setupMinReps = 5
	setupMaxReps = 50
	setupMinCPU  = 2 * time.Second
)

// workload is one benchmark workload. setup builds every input from the
// seed; run measures operations on them until the deadline, and at least
// one round.
type workload interface {
	setup(seed uint64, sp *spans) error
	run(deadline time.Time, sp *spans) (*phase, error)
}

// phase is what one measured stretch of a workload produced.
type phase struct {
	opMS      []float64     // CPU time of each operation; wall time of each job on paper-eval
	memops    int64         // memops processed by the operations
	busy      time.Duration // process CPU time the operations took
	alloc     memSnap       // allocation during the operations
	attempted int64
	failed    int64
	wrong     int64    // output checks that failed
	problems  []string // the first few failed checks, for the log

	// Simulated results of the first round, which is the same input set
	// in every run of a seed, so they repeat exactly.
	simMemops, simLogBytes, simCycles int64
	slowdowns                         []float64

	// layer holds per-layer values only the workload can compute
	// (simulated counts, harness and debug figures).
	layer map[string]float64
}

func newPhase() *phase { return &phase{layer: map[string]float64{}} }

// throughput is the headline: memops processed per CPU second of the
// process. A total over the run rather than a median of per-operation
// rates, so that a run partly inside a slow spell of the machine moves it
// in proportion.
func (p *phase) throughput() float64 { return float64(p.memops) / p.busy.Seconds() }

// problem records a failed output check.
func (p *phase) problem(format string, args ...any) {
	p.wrong++
	if len(p.problems) < 20 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "record-fft16":
		return &recordFFT{}, nil
	case "replay-verify":
		return &replayVerify{}, nil
	case "paper-eval":
		return &paperEval{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want record-fft16, replay-verify or paper-eval)", name)
}

func main() {
	name := flag.String("workload", "", "record-fft16, replay-verify or paper-eval")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "measurement time in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	outDir := flag.String("out", ".bench_build", "directory for the span and CPU-profile files of a traced run")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced == 1, *outDir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds int, traced bool, outDir string) error {
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	var sp *spans
	if traced {
		sp = newSpans()
	}
	// Each set-up starts from a fresh workload and a collected heap, so
	// the reps see the same conditions; the last one is measured.
	var w workload
	var setups []float64
	var setupCPU time.Duration
	for len(setups) < setupMinReps || (setupCPU < setupMinCPU && len(setups) < setupMaxReps) {
		var err error
		if w, err = newWorkload(name); err != nil {
			return err
		}
		runtime.GC()
		c0 := cpuTime()
		if err := w.setup(seed, sp); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		d := cpuTime() - c0
		setupCPU += d
		setups = append(setups, d.Seconds())
	}
	// Return the garbage of the earlier set-ups so peak RSS reflects one.
	debug.FreeOSMemory()

	if !traced {
		rss := startRSS()
		ph, err := w.run(time.Now().Add(time.Duration(seconds)*time.Second), nil)
		peak := rss.finish()
		if err != nil {
			return err
		}
		report(name, ph, endToEnd(ph, median(setups), peak))
		return nil
	}

	half := time.Duration(seconds) * time.Second / 2
	plain, err := w.run(time.Now().Add(half), nil)
	if err != nil {
		return err
	}
	runtime.GC()
	var prof bytes.Buffer
	runtime.SetCPUProfileRate(250)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	m0 := readMem()
	tr, err := w.run(time.Now().Add(half), sp)
	whole := readMem().sub(m0)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	host, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return err
	}
	// The files are for offline inspection; the metrics do not need them.
	if err := writeTrace(filepath.Join(outDir, fmt.Sprintf("%s-seed%d", name, seed)), sp, prof.Bytes()); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	stats := sp.stats()
	printSpans(stats)
	printHost(host, tr.memops)
	overhead := tr.throughput() / plain.throughput()
	fmt.Printf("tracing overhead: traced/untraced headline throughput = %.3f (%.0f vs %.0f memops/s)\n",
		overhead, tr.throughput(), plain.throughput())
	combined := *tr
	combined.attempted += plain.attempted
	combined.failed += plain.failed
	combined.wrong += plain.wrong
	combined.problems = append(combined.problems, plain.problems...)
	report(name, &combined, perLayer(tr, stats, host, whole, overhead, len(setups)))
	return nil
}

// writeTrace saves the spans and the CPU profile under base.
func writeTrace(base string, sp *spans, prof []byte) error {
	if err := os.MkdirAll(filepath.Dir(base), 0o755); err != nil {
		return err
	}
	if err := sp.write(base + ".spans.json"); err != nil {
		return err
	}
	return os.WriteFile(base+".cpu.pprof", prof, 0o644)
}

// endToEnd computes the metrics a user of the simulator sees. See
// BENCHMARK.json and README.md for their definitions.
func endToEnd(ph *phase, setupS, peakMB float64) map[string]metric {
	perK := func(x int64) float64 { return 1000 * float64(x) / float64(max(ph.simMemops, 1)) }
	return map[string]metric{
		"memops_per_s":          {ph.throughput(), "memops/s"},
		"op_ms_p50":             {quantile(ph.opMS, 0.5), "ms"},
		"op_ms_p90":             {quantile(ph.opMS, 0.9), "ms"},
		"setup_s":               {setupS, "s"},
		"alloc_bytes_per_memop": {float64(ph.alloc.bytes) / float64(max(ph.memops, 1)), "B/memop"},
		"peak_rss_mb":           {peakMB, "MB"},
		"log_bytes_per_kmemop":  {perK(ph.simLogBytes), "B/kmemop"},
		"replay_slowdown_pct":   {100 * mean(ph.slowdowns), "%"},
		"sim_cycles_per_memop":  {float64(ph.simCycles) / float64(max(ph.simMemops, 1)), "cycles/memop"},
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// hostLayers are the layers whose CPU-profile time is reported.
var hostLayers = []string{"sim", "cpu", "coherence", "cache", "noc", "machine", "record", "scvd",
	"relog", "replay", "debug", "harness", "telemetry", "core", "runtime_gc", "runtime_maps"}

// layerMetrics lists every per-layer metric and its unit, so each run
// prints all of them; a layer the workload does not exercise reads 0.
var layerMetrics = [][2]string{
	{"trace.generate_ms", "ms"},
	{"machine.new_ms", "ms"},
	{"machine.new_alloc_mb", "MB"},
	{"relog.decode_ns_per_byte", "ns/byte"},
	{"relog.validate_ns_per_chunk", "ns/chunk"},
	{"relog.encode_ns_per_byte", "ns/byte"},
	{"relog.compress_ns_per_byte", "ns/byte"},
	{"relog.compress_ratio", "x"},
	{"replay.setup_ms", "ms"},
	{"replay.setup_alloc_mb", "MB"},
	{"replay.setup_share", "frac"},
	{"replay.step_ns_per_chunk", "ns/chunk"},
	{"debug.open_ms", "ms"},
	{"debug.capture_us", "us"},
	{"debug.restore_us", "us"},
	{"debug.state_kb", "KB"},
	{"debug.reexec_chunks_per_seek", "chunks"},
	{"debug.seek_ms_p50", "ms"},
	{"debug.seek_ms_p90", "ms"},
	{"harness.pass_s", "s"},
	{"harness.job_ms_p50", "ms"},
	{"harness.job_ms_p90", "ms"},
	{"harness.worker_busy_frac", "frac"},
	{"harness.tail_idle_s", "s"},
	{"coherence.l1_miss_per_kmemop", "count/kmemop"},
	{"coherence.l2_miss_per_kmemop", "count/kmemop"},
	{"coherence.writebacks_per_kmemop", "count/kmemop"},
	{"noc.msgs_per_kmemop", "count/kmemop"},
	{"noc.flits_per_msg", "flits/msg"},
	{"record.chunks_per_kmemop", "count/kmemop"},
	{"record.cyclic_terminations_per_kmemop", "count/kmemop"},
	{"record.deps_per_kmemop", "count/kmemop"},
	{"record.dset_entries_per_kmemop", "count/kmemop"},
	{"replay.fail_frac", "frac"},
	{"replay.fail_frac.r-all", "frac"},
	{"replay.fail_frac.r-bound", "frac"},
	{"replay.fail_frac.move", "frac"},
	{"replay.fail_frac.gra", "frac"},
	{"replay.fail_frac.vol", "frac"},
	{"replay.fail_frac.crd", "frac"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.allocs_per_memop", "count"},
	{"bench.trace_overhead_ratio", "x"},
}

// perLayer computes the per-layer metrics of a traced phase.
// setups is the number of set-ups the run made.
func perLayer(ph *phase, st map[string]*spanStat, host hostProfile, whole memSnap, overhead float64, setups int) map[string]metric {
	v := maps.Clone(ph.layer)
	meanMS := func(name string) float64 {
		if s := st[name]; s != nil && s.Count > 0 {
			return ms(s.Total) / float64(s.Count)
		}
		return 0
	}
	perN := func(name string) float64 {
		if s := st[name]; s != nil && s.N > 0 {
			return float64(s.Total) / float64(s.N)
		}
		return 0
	}
	durQ := func(name string, q float64) float64 {
		s := st[name]
		if s == nil {
			return 0
		}
		xs := make([]float64, len(s.Durs))
		for i, d := range s.Durs {
			xs[i] = ms(d)
		}
		return quantile(xs, q)
	}
	if s := st["trace.generate"]; s != nil {
		v["trace.generate_ms"] = ms(s.Total) / float64(setups)
	}
	v["machine.new_ms"] = meanMS("machine.new")
	v["relog.decode_ns_per_byte"] = perN("relog.decode")
	v["relog.validate_ns_per_chunk"] = perN("relog.validate")
	v["relog.encode_ns_per_byte"] = perN("relog.encode")
	v["relog.compress_ns_per_byte"] = perN("relog.compress")
	v["replay.setup_ms"] = meanMS("replay.setup")
	v["debug.open_ms"] = meanMS("debug.open")
	v["debug.capture_us"] = 1000 * meanMS("debug.capture")
	v["debug.restore_us"] = 1000 * meanMS("debug.restore")
	v["debug.seek_ms_p50"] = durQ("debug.seek", 0.5)
	v["debug.seek_ms_p90"] = durQ("debug.seek", 0.9)
	if s := st["debug.seek"]; s != nil && s.Count > 0 {
		v["debug.reexec_chunks_per_seek"] = float64(s.N) / float64(s.Count)
	}
	if s := st["harness.run"]; s != nil && s.Count > 0 {
		v["harness.pass_s"] = s.Total.Seconds() / float64(s.Count)
	}
	v["harness.job_ms_p50"] = durQ("harness.execute", 0.5)
	v["harness.job_ms_p90"] = durQ("harness.execute", 0.9)

	nOps := float64(max(len(ph.opMS), 1))
	memops := float64(max(ph.memops, 1))
	v["runtime.gc_cycles_per_op"] = float64(whole.gcs) / nOps
	if whole.allCPU > 0 {
		v["runtime.gc_cpu_frac"] = whole.gcCPU / whole.allCPU
	}
	v["runtime.allocs_per_memop"] = float64(ph.alloc.objects) / memops
	v["bench.trace_overhead_ratio"] = overhead

	out := map[string]metric{}
	for _, m := range hostLayers {
		out["host_share."+m] = metric{host.share(m), "frac"}
		out[m+".host_ns_per_memop"] = metric{float64(host.NS[m]) / memops, "ns/memop"}
	}
	for _, lm := range layerMetrics {
		out[lm[0]] = metric{v[lm[0]], lm[1]}
	}
	return out
}

// report prints the metrics as a table and then the result line, which
// must be the last line of standard output.
func report(name string, ph *phase, ms map[string]metric) {
	for _, p := range ph.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%s: %d operations attempted, %d failed\n", name, ph.attempted, ph.failed)
	for _, k := range names {
		fmt.Printf("  %-40s %16.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
	line := resultLine{
		Correct:   ph.wrong == 0,
		Attempted: max(ph.attempted, 1),
		Failed:    ph.failed,
		Metrics:   ms,
	}
	blob, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(blob))
}

// printSpans prints per-name span totals and self times.
func printSpans(st map[string]*spanStat) {
	names := make([]string, 0, len(st))
	for k := range st {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%-22s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, k := range names {
		s := st[k]
		fmt.Printf("%-22s %8d %12.2f %12.2f\n", k, s.Count, ms(s.Total), ms(s.Self))
	}
}

// printHost prints CPU-profile time per layer, largest first.
func printHost(h hostProfile, memops int64) {
	type row struct {
		layer string
		ns    int64
	}
	var rows []row
	for k, v := range h.NS {
		rows = append(rows, row{k, v})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].ns > rows[j].ns })
	fmt.Printf("%-16s %8s %14s\n", "layer", "share", "ns/memop")
	for _, r := range rows {
		fmt.Printf("%-16s %7.1f%% %14.1f\n", r.layer, 100*h.share(r.layer), float64(r.ns)/float64(max(memops, 1)))
	}
}

// excludeFromProfile runs f with the profile label that drops its
// samples from the per-layer host time: output checks and probes are not
// the workload's own operation.
func excludeFromProfile(kind string, f func()) {
	pprof.Do(context.Background(), pprof.Labels(excludeLabel, kind), func(context.Context) { f() })
}
