package cpu

import (
	"fmt"
	"slices"
	"testing"

	"pacifier/internal/coherence"
	"pacifier/internal/trace"
)

// fwdObs keeps the forwards of a single-core run, as (load, store)
// pairs, and logs its load value bindings ("bind <sn>"), retirements
// ("ret <sn>") and performs ("perf <sn>") in order.
type fwdObs struct {
	NopObserver
	log  []string
	fwds [][2]SN // load, store
}

func (o *fwdObs) add(format string, args ...any) { o.log = append(o.log, fmt.Sprintf(format, args...)) }

func (o *fwdObs) OnRetire(_ int, sn SN)    { o.add("ret %d", sn) }
func (o *fwdObs) OnPerformed(_ int, sn SN) { o.add("perf %d", sn) }
func (o *fwdObs) OnLoadValue(_ int, sn SN, _ coherence.Addr, _ uint64) {
	o.add("bind %d", sn)
}
func (o *fwdObs) OnLoadForwarded(_ int, load, store SN, _ uint64) {
	o.fwds = append(o.fwds, [2]SN{load, store})
}

// sameBucket returns a word address other than a that hashes to a's
// forwarding-filter bucket, so a store to it makes loads of a scan.
func sameBucket(a coherence.Addr) coherence.Addr {
	for i := 1; ; i++ {
		if b := trace.SharedWord(100+i, 0); fwdBucket(b) == fwdBucket(a) {
			return b
		}
	}
}

func TestStoreToLoadForwarding(t *testing.T) {
	x, y := trace.SharedWord(0, 0), trace.SharedWord(1, 0)
	lock := trace.LockAddr(0)
	for _, tc := range []struct {
		name string
		prog trace.Thread
		// The one expected forward, load from store; none if store is 0.
		load, store SN
		// Events of the run that must occur in this order: they show
		// the case tests what its name says.
		order []string
	}{
		{
			// The miss on y holds the window head, so the store to x
			// cannot retire before the load binds.
			name: "window",
			prog: trace.Thread{
				{Kind: trace.Read, Addr: y},  // sn 1
				{Kind: trace.Write, Addr: x}, // sn 2
				{Kind: trace.Read, Addr: x},  // sn 3
			},
			load: 3, store: 2,
			order: []string{"bind 3", "ret 2"},
		},
		{
			// The store retires at once, and its miss keeps it in the
			// SB far longer than the compute gap.
			name: "store-buffer",
			prog: trace.Thread{
				{Kind: trace.Write, Addr: x}, // sn 1
				{Kind: trace.Compute, Cycles: 5},
				{Kind: trace.Read, Addr: x}, // sn 2
			},
			load: 2, store: 1,
			order: []string{"ret 1", "bind 2", "perf 1"},
		},
		{
			name: "youngest-in-window",
			prog: trace.Thread{
				{Kind: trace.Read, Addr: y},  // sn 1
				{Kind: trace.Write, Addr: x}, // sn 2
				{Kind: trace.Write, Addr: x}, // sn 3
				{Kind: trace.Read, Addr: x},  // sn 4
			},
			load: 4, store: 3,
			order: []string{"bind 4", "ret 3"},
		},
		{
			name: "youngest-in-store-buffer",
			prog: trace.Thread{
				{Kind: trace.Write, Addr: x}, // sn 1
				{Kind: trace.Write, Addr: x}, // sn 2
				{Kind: trace.Compute, Cycles: 5},
				{Kind: trace.Read, Addr: x}, // sn 3
			},
			load: 3, store: 2,
			order: []string{"ret 2", "bind 3", "perf 2"},
		},
		{
			// The acquire holds the load back until the younger store
			// to the same word is in the window.
			name: "never-younger",
			prog: trace.Thread{
				{Kind: trace.Acquire, Addr: lock}, // sn 1
				{Kind: trace.Read, Addr: x},       // sn 2
				{Kind: trace.Write, Addr: x},      // sn 3
				{Kind: trace.Release, Addr: lock}, // sn 4
			},
			order: []string{"perf 1", "bind 2"},
		},
		{
			// The second store to x hits the line the first left
			// modified and completes, while the older miss on y keeps
			// it in the SB. The store to a word in x's filter bucket
			// makes the load scan; it must read the cache.
			name: "never-completed",
			prog: trace.Thread{
				{Kind: trace.Write, Addr: x}, // sn 1
				{Kind: trace.Compute, Cycles: 2000},
				{Kind: trace.Write, Addr: y},             // sn 2
				{Kind: trace.Write, Addr: x},             // sn 3
				{Kind: trace.Write, Addr: sameBucket(x)}, // sn 4
				{Kind: trace.Compute, Cycles: 150},
				{Kind: trace.Read, Addr: x}, // sn 5
			},
			order: []string{"perf 3", "bind 5", "perf 2", "perf 4"},
		},
		{
			// The release to the lock waits in the SB behind the miss
			// on y; the store to a word in the lock's filter bucket
			// makes the load scan past it.
			name: "never-release",
			prog: trace.Thread{
				{Kind: trace.Acquire, Addr: lock}, // sn 1
				{Kind: trace.Compute, Cycles: 2000},
				{Kind: trace.Write, Addr: y},                // sn 2
				{Kind: trace.Release, Addr: lock},           // sn 3
				{Kind: trace.Write, Addr: sameBucket(lock)}, // sn 4
				{Kind: trace.Compute, Cycles: 20},
				{Kind: trace.Read, Addr: lock}, // sn 5
			},
			order: []string{"ret 3", "bind 5", "perf 3"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			obs := &fwdObs{}
			c := runCore(t, tc.prog, obs)
			last := -1
			for _, ev := range tc.order {
				i := slices.Index(obs.log, ev)
				if i <= last {
					t.Fatalf("events %v out of order in %v", tc.order, obs.log)
				}
				last = i
			}
			if tc.store == 0 {
				if len(obs.fwds) != 0 {
					t.Fatalf("unexpected forwards (load, store): %v", obs.fwds)
				}
				return
			}
			if len(obs.fwds) != 1 || obs.fwds[0] != [2]SN{tc.load, tc.store} {
				t.Fatalf("forwards (load, store) %v, want only (%d, %d)", obs.fwds, tc.load, tc.store)
			}
			if got, want := c.Records()[tc.load-1].Value, StoreValue(0, tc.store); got != want {
				t.Fatalf("load bound %#x, want %#x", got, want)
			}
		})
	}
}
