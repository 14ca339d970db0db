package sim

import (
	"math"
	"math/bits"
)

// Cycle is a point in simulated time. The whole machine shares one clock.
type Cycle int64

// Event is a callback scheduled to run at a given cycle.
type Event struct {
	At  Cycle
	Fn  func()
	seq uint64 // insertion order, breaks ties deterministically
}

// ringSize is the calendar-queue horizon in cycles. Nearly every delay in
// the simulated machine (cache hits, mesh hops, the 200-cycle memory
// round trip, spin backoffs) is far below it, so the heap spill path is
// cold. Must be a power of two.
const ringSize = 512

// eventHeap orders far-future events by (At, seq), so that simultaneous
// events run in insertion order. It holds events by value with concrete
// (non-interface) push/pop: the container/heap API would box every Event
// into an `any` on both Push and Pop, allocating on the spill path. The
// backing array is retained across drain/refill cycles.
type eventHeap struct {
	ev []Event
}

func (h *eventHeap) less(i, j int) bool {
	a, b := &h.ev[i], &h.ev[j]
	if a.At != b.At {
		return a.At < b.At
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(e Event) {
	h.ev = append(h.ev, e)
	i := len(h.ev) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.ev[i], h.ev[parent] = h.ev[parent], h.ev[i]
		i = parent
	}
}

// pop removes and returns the minimum event. The vacated slot keeps its
// backing storage but drops the closure so it can be collected.
func (h *eventHeap) pop() Event {
	n := len(h.ev) - 1
	h.ev[0], h.ev[n] = h.ev[n], h.ev[0]
	e := h.ev[n]
	h.ev[n].Fn = nil
	h.ev = h.ev[:n]
	// Sift the swapped-in root down.
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			break
		}
		h.ev[i], h.ev[m] = h.ev[m], h.ev[i]
		i = m
	}
	return e
}

// Engine is a discrete-event scheduler with a monotone clock. Components
// that act on their own (the cores) register as Steppers; sporadic work
// (message deliveries, timer expirations) is posted as events.
//
// Steppers are clocked on demand, not every cycle. Each Step returns the
// next cycle at which the stepper must run, and Wake makes a stepper due
// at once, so a stepper that is waiting on something (a reply, a timer,
// a barrier) costs nothing until that thing happens. RunUntil jumps the
// clock over cycles in which no stepper is due and no event is queued.
//
// Events within the scheduling horizon live in a calendar queue: a ring
// of per-cycle buckets whose backing arrays are reused cycle after cycle,
// so steady-state scheduling allocates nothing. A bitmap marks the
// non-empty buckets, which is how the next event cycle is found. Events
// beyond the horizon spill to a heap and migrate into their bucket as
// the clock approaches. Events run in (At, seq) order, i.e. same-cycle
// events in insertion order.
type Engine struct {
	now     Cycle
	nextSeq uint64
	stepper []Stepper
	due     []Cycle // due[i]: the next cycle at which stepper i runs
	soonest Cycle   // min(due), kept by Tick, Register and Wake

	// buckets[c & (ringSize-1)] holds the events for cycle c, for every c
	// in [now, now+ringSize). Bucket order is insertion order: far events
	// migrate in (in seq order) before any near event for the same cycle
	// can be appended, so append order equals seq order. Bit b of
	// occupied is set while buckets[b] is non-empty.
	buckets  [ringSize][]Event
	occupied [ringSize / 64]uint64
	far      eventHeap // events at/beyond now+ringSize
	pending  int
}

// Never is the due cycle of a stepper that has nothing to do until it is
// woken.
const Never Cycle = math.MaxInt64

// Stepper is a component clocked by the engine, in registration order.
type Stepper interface {
	// Step runs the stepper at cycle now and returns the next cycle at
	// which it must run again (Never: not until Wake). A value at or
	// before now means now+1. A stepper may return a later cycle only
	// if every Step it skips would change nothing.
	Step(now Cycle) Cycle
}

// NewEngine returns an engine at cycle 0 with no pending events. Every
// calendar bucket starts with a small capacity carved from one shared
// slab, so warming up the ring does not cost a growth allocation per
// bucket.
func NewEngine() *Engine {
	e := &Engine{soonest: Never}
	const per = 8
	backing := make([]Event, ringSize*per)
	for i := range e.buckets {
		e.buckets[i] = backing[i*per : i*per : (i+1)*per]
	}
	return e
}

// Now returns the current cycle.
func (e *Engine) Now() Cycle { return e.now }

// Register adds a stepper, due at the current cycle, and returns its
// index for Wake. Steppers run before same-cycle events, in
// registration order.
func (e *Engine) Register(s Stepper) int {
	e.stepper = append(e.stepper, s)
	e.due = append(e.due, e.now)
	e.soonest = min(e.soonest, e.now)
	return len(e.stepper) - 1
}

// Wake makes stepper i due at the current cycle. Called from an earlier
// stepper's Step, it runs i in this same cycle; from a later stepper's
// Step (or i's own) or from an event, in the next cycle. That is when an
// every-cycle clock would first have seen the change that woke it.
func (e *Engine) Wake(i int) {
	if e.due[i] > e.now {
		e.due[i] = e.now
		e.soonest = e.now
	}
}

// After schedules fn to run delay cycles from now. A zero delay runs at
// the end of the current cycle (after all steppers).
func (e *Engine) After(delay Cycle, fn func()) {
	if delay < 0 {
		panic("sim: negative event delay")
	}
	e.nextSeq++
	e.pending++
	at := e.now + delay
	if delay < ringSize {
		// Any spilled event for a cycle within the horizon must land in
		// its bucket before this near append, or bucket order would stop
		// matching seq order. Tick migrates eagerly, so this loop only
		// runs when After is called outside a Tick (e.g. test setup).
		e.migrate()
		e.push(Event{At: at, Fn: fn, seq: e.nextSeq})
		return
	}
	e.far.push(Event{At: at, Fn: fn, seq: e.nextSeq})
}

// push appends ev to its calendar bucket.
func (e *Engine) push(ev Event) {
	i := ev.At & (ringSize - 1)
	e.buckets[i] = append(e.buckets[i], ev)
	e.occupied[i>>6] |= 1 << (i & 63)
}

// migrate moves every spilled event whose cycle is within the horizon
// into its calendar bucket. The heap pops in (At, seq) order and no near
// event for a newly-reachable cycle can precede its migrated events, so
// bucket append order stays seq order.
func (e *Engine) migrate() {
	horizon := e.now + ringSize - 1
	for len(e.far.ev) > 0 && e.far.ev[0].At <= horizon {
		e.push(e.far.pop())
	}
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return e.pending }

// Tick runs one cycle: every due stepper steps, then every event
// scheduled at the current cycle runs in order, and the clock advances
// by one.
func (e *Engine) Tick() {
	// The cycle now+ringSize-1 enters the horizon this tick: migrate any
	// spilled events for it before steppers can post near events.
	e.migrate()

	if e.soonest <= e.now {
		// A Wake during the loop lowers soonest itself; the loop takes
		// the minimum of the rest.
		soonest := Never
		e.soonest = Never
		for i := range e.due {
			if e.due[i] <= e.now {
				// A Wake of i from inside its own Step leaves due[i] at
				// now, which makes it due again next cycle.
				e.due[i] = Never
				if next := e.stepper[i].Step(e.now); next < e.due[i] {
					e.due[i] = next
				}
			}
			soonest = min(soonest, e.due[i])
		}
		e.soonest = min(e.soonest, soonest)
	}

	// Run this cycle's bucket. Events may append to it while it runs
	// (zero-delay scheduling), so re-check the length each iteration.
	slot := e.now & (ringSize - 1)
	b := &e.buckets[slot]
	for i := 0; i < len(*b); i++ {
		fn := (*b)[i].Fn
		(*b)[i].Fn = nil // release the closure; the slot is reused
		e.pending--
		fn()
	}
	*b = (*b)[:0]
	e.occupied[slot>>6] &^= 1 << (slot & 63)
	e.now++
}

// next returns the first cycle at or after now at which a stepper is due
// or an event is queued, or Never.
func (e *Engine) next() Cycle {
	at := e.soonest
	if at <= e.now || e.pending == 0 {
		return max(at, e.now)
	}
	// Every bucketed event precedes every spilled one (migrate keeps the
	// horizon's events bucketed), so the heap matters only when the
	// ring is empty. Scan the bitmap from now's bucket, wrapping once.
	start := int(e.now & (ringSize - 1))
	for k := 0; k <= len(e.occupied); k++ {
		w := (start>>6 + k) % len(e.occupied)
		bits64 := e.occupied[w]
		if k == 0 {
			bits64 &= ^uint64(0) << (start & 63)
		} else if k == len(e.occupied) {
			bits64 &= 1<<(start&63) - 1
		}
		if bits64 != 0 {
			slot := w<<6 + bits.TrailingZeros64(bits64)
			return min(at, e.now+Cycle((slot-start)&(ringSize-1)))
		}
	}
	if len(e.far.ev) > 0 {
		return min(at, e.far.ev[0].At)
	}
	return at
}

// RunUntil runs until pred returns true or the clock reaches limit. It
// returns true if pred was satisfied. pred is checked before every cycle
// the engine runs and must depend only on simulation state, not on the
// clock: the cycles RunUntil jumps over change no state, so it reports
// completion at the same Now() as a clock that ticked through them. The
// limit guards against deadlocked simulations in tests.
func (e *Engine) RunUntil(pred func() bool, limit Cycle) bool {
	for e.now < limit {
		if pred() {
			return true
		}
		e.now = min(e.next(), limit)
		if e.now == limit {
			break
		}
		e.Tick()
	}
	return pred()
}
