package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer package, made from this
// benchmark's own code. Parent is the index of the enclosing span, or -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	// N is the span's work count (bytes, chunks, ...), 0 if none.
	N int64 `json:"n,omitempty"`
}

// spans records spans in memory; they are written out only when the run
// ends. A nil *spans records nothing, which is how the untraced run
// measures: every method is then a nil check.
type spans struct {
	mu    sync.Mutex
	epoch time.Time
	list  []span
}

func newSpans() *spans { return &spans{epoch: time.Now()} }

// begin opens a span and returns its index (-1 when recording is off).
func (s *spans) begin(name string, parent int) int {
	if s == nil {
		return -1
	}
	now := time.Since(s.epoch).Nanoseconds()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list = append(s.list, span{Name: name, Start: now, End: -1, Parent: parent})
	return len(s.list) - 1
}

// end closes span id, crediting it with n units of work, and returns
// the span's duration (0 when recording is off).
func (s *spans) end(id int, n int64) time.Duration {
	if s == nil || id < 0 {
		return 0
	}
	now := time.Since(s.epoch).Nanoseconds()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list[id].End = now
	s.list[id].N = n
	return time.Duration(now - s.list[id].Start)
}

// spanStat aggregates every closed span of one name.
type spanStat struct {
	Count int
	Total time.Duration // wall time inside the spans
	Self  time.Duration // Total minus the time covered by child spans
	N     int64
	Durs  []time.Duration
}

// stats aggregates spans by name. Self time subtracts the union of the
// child intervals, so children that overlap (parallel harness jobs under
// one pass) are not counted twice.
func (s *spans) stats() map[string]*spanStat {
	out := map[string]*spanStat{}
	if s == nil {
		return out
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	children := make([][]int, len(s.list))
	for i, sp := range s.list {
		if sp.Parent >= 0 {
			children[sp.Parent] = append(children[sp.Parent], i)
		}
	}
	for i, sp := range s.list {
		if sp.End < 0 {
			continue
		}
		st := out[sp.Name]
		if st == nil {
			st = &spanStat{}
			out[sp.Name] = st
		}
		d := time.Duration(sp.End - sp.Start)
		st.Count++
		st.Total += d
		st.Self += d - time.Duration(covered(s.list, children[i], sp.Start, sp.End))
		st.N += sp.N
		st.Durs = append(st.Durs, d)
	}
	return out
}

// covered returns how many nanoseconds of [lo, hi) the given spans cover.
func covered(list []span, idx []int, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, i := range idx {
		a, b := max(list[i].Start, lo), min(list[i].End, hi)
		if list[i].End >= 0 && b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	curB = -1
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// write saves the raw spans as JSON for offline inspection.
func (s *spans) write(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	blob, err := json.Marshal(s.list)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
