package sim

import (
	"fmt"
	"testing"
)

func TestEngineEventOrderByTime(t *testing.T) {
	e := NewEngine()
	var order []int
	e.After(5, func() { order = append(order, 5) })
	e.After(2, func() { order = append(order, 2) })
	e.After(9, func() { order = append(order, 9) })
	for i := 0; i < 20; i++ {
		e.Tick()
	}
	if len(order) != 3 || order[0] != 2 || order[1] != 5 || order[2] != 9 {
		t.Fatalf("order = %v", order)
	}
}

func TestEngineTieBreakByInsertion(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.After(3, func() { order = append(order, i) })
	}
	for i := 0; i < 5; i++ {
		e.Tick()
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break violated: order=%v", order)
		}
	}
}

func TestEngineZeroDelayRunsSameCycle(t *testing.T) {
	e := NewEngine()
	ran := false
	e.After(0, func() { ran = true })
	e.Tick()
	if !ran {
		t.Fatal("zero-delay event did not run on the current cycle")
	}
}

func TestEngineEventsCanScheduleEvents(t *testing.T) {
	e := NewEngine()
	var got Cycle = -1
	e.After(1, func() {
		e.After(4, func() { got = e.Now() })
	})
	for i := 0; i < 10; i++ {
		e.Tick()
	}
	if got != 5 {
		t.Fatalf("chained event ran at %d, want 5", got)
	}
}

func TestEngineChainedZeroDelaySameCycle(t *testing.T) {
	e := NewEngine()
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 3 {
			e.After(0, rec)
		}
	}
	e.After(2, rec)
	e.Tick()
	e.Tick()
	e.Tick() // cycle 2: the whole chain should drain
	if depth != 3 {
		t.Fatalf("depth = %d, want 3 (zero-delay chain must drain within the cycle)", depth)
	}
}

type countStepper struct {
	n     int
	cycle []Cycle
}

func (c *countStepper) Step(now Cycle) Cycle {
	c.n++
	c.cycle = append(c.cycle, now)
	return now + 1
}

func TestEngineSteppersRunEveryCycle(t *testing.T) {
	e := NewEngine()
	s := &countStepper{}
	e.Register(s)
	for i := 0; i < 7; i++ {
		e.Tick()
	}
	if s.n != 7 {
		t.Fatalf("stepper ran %d times, want 7", s.n)
	}
	for i, c := range s.cycle {
		if c != Cycle(i) {
			t.Fatalf("stepper saw cycle %d at tick %d", c, i)
		}
	}
}

func TestEngineSteppersBeforeEvents(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Register(stepFunc(func(Cycle) { order = append(order, "step") }))
	e.After(0, func() { order = append(order, "event") })
	e.Tick()
	if len(order) != 2 || order[0] != "step" || order[1] != "event" {
		t.Fatalf("order = %v", order)
	}
}

// stepFunc is a stepper that asks to run every cycle.
type stepFunc func(Cycle)

func (f stepFunc) Step(now Cycle) Cycle { f(now); return now + 1 }

func TestEngineStepperSchedulesCurrentCycle(t *testing.T) {
	// An event posted with zero delay from inside a Step must run at the
	// end of that same cycle, after all steppers.
	e := NewEngine()
	var order []string
	e.Register(stepFunc(func(Cycle) {
		order = append(order, "step0")
		e.After(0, func() { order = append(order, "event") })
	}))
	e.Register(stepFunc(func(Cycle) { order = append(order, "step1") }))
	e.Tick()
	want := []string{"step0", "step1", "event"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineZeroDelaySelfReschedule(t *testing.T) {
	// A handler that re-posts itself with zero delay keeps running within
	// the same cycle until it stops; the clock must not advance meanwhile.
	e := NewEngine()
	runs := 0
	var at []Cycle
	var self func()
	self = func() {
		runs++
		at = append(at, e.Now())
		if runs < 5 {
			e.After(0, self)
		}
	}
	e.After(3, self)
	for i := 0; i < 4; i++ {
		e.Tick()
	}
	if runs != 5 {
		t.Fatalf("self-rescheduling handler ran %d times, want 5", runs)
	}
	for _, c := range at {
		if c != 3 {
			t.Fatalf("handler ran at cycles %v, want all at 3", at)
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after drain", e.Pending())
	}
}

func TestEngineSpillBoundaryOrdering(t *testing.T) {
	// Events at delays straddling the calendar-queue horizon (ringSize)
	// must still run in (At, seq) order. Interleave near and far inserts
	// that all land on the same pair of target cycles.
	e := NewEngine()
	var order []int
	add := func(id int, delay Cycle) {
		e.After(delay, func() { order = append(order, id) })
	}
	// Target cycle ringSize+5: first two go via the heap (delay >= ringSize),
	// the rest are appended near after the clock has advanced.
	add(0, ringSize+5) // far
	add(1, ringSize+5) // far, same cycle: heap must preserve insertion order
	add(2, ringSize-1) // near, earlier cycle
	add(3, ringSize+6) // far, later cycle
	for e.Now() < 6 {
		e.Tick()
	}
	// Now ringSize+5 = now+ringSize-1 is exactly at the horizon edge.
	add(4, ringSize-1) // near append for cycle ringSize+5, after the far ones
	add(5, ringSize-2) // near append for cycle ringSize+4
	for e.Now() < ringSize+10 {
		e.Tick()
	}
	want := []int{2, 5, 0, 1, 4, 3}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v (At,seq contract across spill boundary)", order, want)
		}
	}
}

func TestEngineFarEventsDeepBeyondHorizon(t *testing.T) {
	// Events several horizons out must survive bucket reuse and fire at
	// exactly their scheduled cycle.
	e := NewEngine()
	var fired []Cycle
	for _, d := range []Cycle{3 * ringSize, ringSize, 2*ringSize + 7} {
		d := d
		e.After(d, func() { fired = append(fired, e.Now()) })
	}
	for e.Now() < 4*ringSize {
		e.Tick()
	}
	want := []Cycle{ringSize, 2*ringSize + 7, 3 * ringSize}
	if len(fired) != len(want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired at %v, want %v", fired, want)
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after drain", e.Pending())
	}
}

// sleeper is a stepper that logs each Step and then sleeps until the
// cycle its plan function names.
type sleeper struct {
	name string
	log  *[]string
	plan func(now Cycle) Cycle
}

func (s *sleeper) Step(now Cycle) Cycle {
	*s.log = append(*s.log, fmt.Sprintf("%d:%s", now, s.name))
	return s.plan(now)
}

func TestEngineNeverSteppedUntilWoken(t *testing.T) {
	e := NewEngine()
	var log []string
	i := e.Register(&sleeper{name: "s", log: &log, plan: func(Cycle) Cycle { return Never }})
	for e.Now() < 10 {
		e.Tick()
	}
	if len(log) != 1 || log[0] != "0:s" {
		t.Fatalf("steps %v, want only the first at cycle 0", log)
	}
	e.After(5, func() { e.Wake(i) }) // fires in cycle 15
	for e.Now() < 30 {
		e.Tick()
	}
	if len(log) != 2 || log[1] != "16:s" {
		t.Fatalf("steps %v, want a second at cycle 16, after the waking event", log)
	}
}

func TestEngineWakeOrderAcrossSteppers(t *testing.T) {
	e := NewEngine()
	var log []string
	var first, last int
	never := func(Cycle) Cycle { return Never }
	first = e.Register(&sleeper{name: "first", log: &log, plan: never})
	e.Register(&sleeper{name: "mid", log: &log, plan: func(now Cycle) Cycle {
		if now == 3 {
			e.Wake(first) // registered earlier: runs next cycle
			e.Wake(last)  // registered later: runs this cycle
		}
		return now + 3
	}})
	last = e.Register(&sleeper{name: "last", log: &log, plan: never})
	for e.Now() < 5 {
		e.Tick()
	}
	want := []string{"0:first", "0:mid", "0:last", "3:mid", "3:last", "4:first"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("steps %v, want %v", log, want)
	}
}

func TestRunUntilJumpsIdleGapsToTheSameEnd(t *testing.T) {
	// The same scenario, run by RunUntil (which jumps idle cycles) and
	// by a loop that ticks every cycle, must step and fire at the same
	// cycles and stop at the same Now().
	build := func() (*Engine, *[]string, func() bool) {
		e := NewEngine()
		log := &[]string{}
		var w int
		w = e.Register(&sleeper{name: "a", log: log, plan: func(now Cycle) Cycle {
			if now < 200 {
				return now + 37 // a timer-like sleep
			}
			return Never
		}})
		e.Register(&sleeper{name: "b", log: log, plan: func(Cycle) Cycle { return Never }})
		done := false
		e.After(90, func() { *log = append(*log, fmt.Sprintf("%d:ev", e.Now())); e.Wake(w) })
		e.After(3*ringSize+11, func() { *log = append(*log, fmt.Sprintf("%d:far", e.Now())); done = true })
		return e, log, func() bool { return done }
	}
	jump, jlog, jdone := build()
	if !jump.RunUntil(jdone, 1<<20) {
		t.Fatal("RunUntil missed the far event")
	}
	tick, tlog, tdone := build()
	for tick.Now() < 1<<20 && !tdone() {
		tick.Tick()
	}
	if jump.Now() != tick.Now() {
		t.Fatalf("RunUntil stopped at %d, cycle-by-cycle ticking at %d", jump.Now(), tick.Now())
	}
	if fmt.Sprint(*jlog) != fmt.Sprint(*tlog) {
		t.Fatalf("RunUntil ran\n%v\ncycle-by-cycle ticking ran\n%v", *jlog, *tlog)
	}
}

func TestRunUntilIdleReachesLimitAtOnce(t *testing.T) {
	e := NewEngine()
	var log []string
	e.Register(&sleeper{name: "s", log: &log, plan: func(Cycle) Cycle { return Never }})
	const limit = Cycle(1) << 40
	if e.RunUntil(func() bool { return false }, limit) {
		t.Fatal("RunUntil reported success for an unsatisfiable predicate")
	}
	if e.Now() != limit || len(log) != 1 {
		t.Fatalf("clock at %d after steps %v, want %d after one", e.Now(), log, limit)
	}
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	NewEngine().After(-1, func() {})
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	done := false
	e.After(10, func() { done = true })
	if !e.RunUntil(func() bool { return done }, 100) {
		t.Fatal("RunUntil missed the event")
	}
	if e.Now() < 10 || e.Now() > 12 {
		t.Fatalf("clock at %d after RunUntil", e.Now())
	}
}

func TestRunUntilLimit(t *testing.T) {
	e := NewEngine()
	if e.RunUntil(func() bool { return false }, 50) {
		t.Fatal("RunUntil reported success for an unsatisfiable predicate")
	}
	if e.Now() != 50 {
		t.Fatalf("clock at %d, want 50", e.Now())
	}
}

func TestPending(t *testing.T) {
	e := NewEngine()
	e.After(1, func() {})
	e.After(2, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.Tick()
	e.Tick()
	e.Tick()
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after drain, want 0", e.Pending())
	}
}

// BenchmarkEventEngine measures the steady-state cost of the scheduler
// under a mesh-like load: 64 concurrent event chains rescheduling
// themselves at short delays, with one long delay in the mix to keep the
// heap spill path honest. Run with -benchmem: the calendar queue should
// report zero allocs/op once the bucket arrays are warm.
func BenchmarkEventEngine(b *testing.B) {
	e := NewEngine()
	delays := []Cycle{1, 2, 3, 5, 8, 13, 21, ringSize + 88}
	fired := 0
	for i := 0; i < 64; i++ {
		i := i
		step := i
		var chain func()
		chain = func() {
			fired++
			step++
			e.After(delays[step&7], chain)
		}
		e.After(delays[i&7], chain)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for fired < b.N {
		e.Tick()
	}
}

func TestStatsCounters(t *testing.T) {
	s := NewStats()
	s.Inc("a", 3)
	s.Inc("a", 4)
	s.Inc("b", 1)
	if s.Get("a") != 7 || s.Get("b") != 1 || s.Get("missing") != 0 {
		t.Fatalf("counter values wrong: a=%d b=%d", s.Get("a"), s.Get("b"))
	}
}

func TestStatsGaugeWatermark(t *testing.T) {
	s := NewStats()
	g := s.Gauge("occ")
	g.Add(5)
	g.Add(3)
	g.Add(-6)
	if g.Value != 2 || g.Max != 8 {
		t.Fatalf("gauge value=%d max=%d, want 2/8", g.Value, g.Max)
	}
	if s.GaugeMax("occ") != 8 {
		t.Fatal("GaugeMax mismatch")
	}
	if s.GaugeMax("none") != 0 {
		t.Fatal("GaugeMax of absent gauge should be 0")
	}
}

func TestStatsNamesSorted(t *testing.T) {
	s := NewStats()
	s.Inc("zeta", 1)
	s.Inc("alpha", 1)
	s.Inc("mid", 1)
	names := s.Names()
	if len(names) != 3 || names[0] != "alpha" || names[1] != "mid" || names[2] != "zeta" {
		t.Fatalf("names = %v", names)
	}
}

func TestStatsString(t *testing.T) {
	s := NewStats()
	s.Inc("x", 2)
	s.Gauge("g").Set(4)
	out := s.String()
	if out != "x=2\ng=4(max=4)\n" {
		t.Fatalf("String() = %q", out)
	}
}

// TestHeapSpillAllocs pins the spill path's steady-state allocation
// behavior: once the far heap has warmed up its backing array, repeated
// push/pop cycles (events beyond the calendar horizon migrating in as
// the clock advances) must not allocate. The old container/heap-based
// implementation boxed every Event into an interface on both Push and
// Pop, costing an allocation per spilled event.
func TestHeapSpillAllocs(t *testing.T) {
	e := NewEngine()
	ran := 0
	fn := func() { ran++ } // one shared closure: measure the heap, not the test
	// Warm up: spill a batch, drain it completely.
	spill := func() {
		for i := 0; i < 64; i++ {
			e.After(ringSize+Cycle(i), fn)
		}
		for e.Pending() > 0 {
			e.Tick()
		}
	}
	spill()
	allocs := testing.AllocsPerRun(10, spill)
	if allocs > 0 {
		t.Fatalf("spill path allocates %.1f times per 64-event batch, want 0", allocs)
	}
}

// TestHeapSpillKeepsBacking verifies the heap's backing array is reused
// across a full drain/refill cycle rather than regrown.
func TestHeapSpillKeepsBacking(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 128; i++ {
		e.After(ringSize+Cycle(i), func() {})
	}
	grown := cap(e.far.ev)
	for e.Pending() > 0 {
		e.Tick()
	}
	if len(e.far.ev) != 0 {
		t.Fatalf("heap not drained: len=%d", len(e.far.ev))
	}
	for i := 0; i < 128; i++ {
		e.After(ringSize+Cycle(i), func() {})
	}
	if cap(e.far.ev) != grown {
		t.Fatalf("backing array regrown: cap %d -> %d", grown, cap(e.far.ev))
	}
}

// TestHeapSpillOrder checks the concrete-heap rewrite preserves the
// (At, seq) execution order across interleaved spills.
func TestHeapSpillOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 50; i++ {
		i := i
		// Descending target cycles, so heap order != insertion order.
		e.After(ringSize+Cycle(50-i), func() { order = append(order, i) })
	}
	for j := 0; j < 8; j++ { // same cycle, insertion-order tie-break
		j := j
		e.After(ringSize+25, func() { order = append(order, 100+j) })
	}
	for e.Pending() > 0 {
		e.Tick()
	}
	if len(order) != 58 {
		t.Fatalf("ran %d events, want 58", len(order))
	}
	want := make([]int, 0, 58)
	for i := 49; i >= 26; i-- {
		want = append(want, i)
	}
	want = append(want, 25)
	for j := 0; j < 8; j++ {
		want = append(want, 100+j)
	}
	for i := 24; i >= 0; i-- {
		want = append(want, i)
	}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order[%d] = %d, want %d (full: %v)", i, order[i], v, order)
		}
	}
}
