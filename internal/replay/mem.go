package replay

import (
	"cmp"
	"math/bits"
	"slices"

	"pacifier/internal/coherence"
)

// memImage is the replayed memory: word address to value. It is a
// fixed-size open-addressing index with linear probing over a dense
// array of the stored words, kept in first-store order. Replay stores
// only to addresses the workload's store ops target, so an index with
// more slots than the workload has store ops never fills, and the word
// array, allocated for that many words, never grows. A word that was
// never stored to reads as zero and has no entry, exactly like a missing
// map key.
type memImage struct {
	index []int32   // 1 + position in words, 0 for a free slot
	words []memWord // stored words
}

type memWord struct {
	addr coherence.Addr
	val  uint64
}

// newMemImage sizes the image for a workload with the given number of
// store ops: at least twice that many index slots, and always one free
// slot, so a probe for an absent address terminates.
func newMemImage(stores int) memImage {
	return memImage{index: make([]int32, 2*stores+1), words: make([]memWord, 0, stores)}
}

// find returns the index slot of a and a's entry there, or the free slot
// where a belongs and 0. The probe starts at a multiplicative hash of
// a, mapped onto the index by the high word of a 128-bit product.
func (m *memImage) find(a coherence.Addr) (int, int32) {
	hi, _ := bits.Mul64(uint64(a)*0x9e3779b97f4a7c15, uint64(len(m.index)))
	for i := int(hi); ; {
		e := m.index[i]
		if e == 0 || m.words[e-1].addr == a {
			return i, e
		}
		if i++; i == len(m.index) {
			i = 0
		}
	}
}

// get returns the value at a, zero if a was never stored to.
func (m *memImage) get(a coherence.Addr) uint64 {
	if _, e := m.find(a); e != 0 {
		return m.words[e-1].val
	}
	return 0
}

// set stores v at a. The caller guarantees that a is a store target of
// the workload, which bounds the number of words.
func (m *memImage) set(a coherence.Addr, v uint64) {
	i, e := m.find(a)
	if e != 0 {
		m.words[e-1].val = v
		return
	}
	m.words = append(m.words, memWord{addr: a, val: v})
	m.index[i] = int32(len(m.words))
}

// clear empties the image, keeping its size.
func (m *memImage) clear() {
	clear(m.index)
	m.words = m.words[:0]
}

// sorted returns every stored word sorted by address (non-nil, so an
// empty image encodes as [] like it always has).
func (m *memImage) sorted() []MemState {
	out := make([]MemState, len(m.words))
	for i, w := range m.words {
		out[i] = MemState{Addr: uint64(w.addr), Val: w.val}
	}
	slices.SortFunc(out, func(a, b MemState) int { return cmp.Compare(a.Addr, b.Addr) })
	return out
}
