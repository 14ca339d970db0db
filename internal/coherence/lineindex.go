package coherence

import (
	"math/bits"

	"pacifier/internal/cache"
)

// lineIndex assigns dense IDs 0, 1, 2, ... to cache lines in first-touch
// order; a controller's lines table is indexed by them. It is an
// open-addressing index with linear probing over a power-of-two array of
// IDs, which doubles whenever it would become more than half full, so it
// needs no pass over the workload to size it and every probe for an
// absent line ends at a free slot.
type lineIndex struct {
	slots []int32      // 1 + ID, 0 for a free slot
	keys  []cache.Line // keys[id] is the line with that ID
	shift uint         // 64 - log2(len(slots))
}

// minLineSlots is the slot count of a fresh index.
const minLineSlots = 64

// find returns the slot for l and l's ID there, or the free slot where
// l belongs and -1. The probe starts at the high bits of a
// multiplicative hash of l. The index must have slots.
func (x *lineIndex) find(l cache.Line) (int, int32) {
	mask := len(x.slots) - 1
	for i := int(uint64(l) * 0x9e3779b97f4a7c15 >> x.shift); ; i = (i + 1) & mask {
		e := x.slots[i]
		if e == 0 {
			return i, -1
		}
		if x.keys[e-1] == l {
			return i, e - 1
		}
	}
}

// get returns l's ID, or false if l has none.
func (x *lineIndex) get(l cache.Line) (int32, bool) {
	if len(x.keys) == 0 {
		return 0, false
	}
	_, id := x.find(l)
	return id, id >= 0
}

// add gives l, which must have no ID, the next one.
func (x *lineIndex) add(l cache.Line) {
	if 2*(len(x.keys)+1) > len(x.slots) {
		x.grow()
	}
	i, _ := x.find(l)
	x.keys = append(x.keys, l)
	x.slots[i] = int32(len(x.keys))
}

// grow doubles the slot array and re-inserts every line.
func (x *lineIndex) grow() {
	x.slots = make([]int32, max(2*len(x.slots), minLineSlots))
	x.shift = uint(65 - bits.Len(uint(len(x.slots))))
	for id, l := range x.keys {
		i, _ := x.find(l)
		x.slots[i] = int32(id + 1)
	}
}
