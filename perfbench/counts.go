package main

import (
	"strings"

	"pacifier/internal/sim"
)

// simCounts sums the exact simulated event counts of recorded runs, from
// their metrics snapshots. They explain host time per simulated event,
// and a change meant only to speed up the simulator must leave every one
// of them identical.
type simCounts struct {
	memops, l1Miss, l2Miss, writebacks, msgs, flits int64
	chunks, cyclicTerms, deps, dsetEntries          int64
}

// add folds in one run: its snapshot, memop count and Granule chunks.
// In a run with several recorders the record.* counters are summed over
// all of them.
func (c *simCounts) add(snap *sim.Snapshot, memops int64, chunks int) {
	c.memops += memops
	c.chunks += int64(chunks)
	for _, k := range snap.Counters {
		switch {
		case k.Name == "l1.load_misses" || k.Name == "l1.store_misses" || k.Name == "l1.rmw_misses":
			c.l1Miss += k.Value
		case k.Name == "l2.misses":
			c.l2Miss += k.Value
		case strings.HasSuffix(k.Name, ".writebacks"):
			c.writebacks += k.Value
		case k.Name == "noc.messages":
			c.msgs += k.Value
		case k.Name == "noc.flits":
			c.flits += k.Value
		case k.Name == "record.cyclic_terminations":
			c.cyclicTerms += k.Value
		case strings.HasPrefix(k.Name, "record.deps."):
			c.deps += k.Value
		case k.Name == "record.dset_entries":
			c.dsetEntries += k.Value
		}
	}
}

// into writes the per-layer count metrics.
func (c *simCounts) into(layer map[string]float64) {
	if c.memops == 0 {
		return
	}
	perK := func(x int64) float64 { return 1000 * float64(x) / float64(c.memops) }
	layer["coherence.l1_miss_per_kmemop"] = perK(c.l1Miss)
	layer["coherence.l2_miss_per_kmemop"] = perK(c.l2Miss)
	layer["coherence.writebacks_per_kmemop"] = perK(c.writebacks)
	layer["noc.msgs_per_kmemop"] = perK(c.msgs)
	if c.msgs > 0 {
		layer["noc.flits_per_msg"] = float64(c.flits) / float64(c.msgs)
	}
	layer["record.chunks_per_kmemop"] = perK(c.chunks)
	layer["record.cyclic_terminations_per_kmemop"] = perK(c.cyclicTerms)
	layer["record.deps_per_kmemop"] = perK(c.deps)
	layer["record.dset_entries_per_kmemop"] = perK(c.dsetEntries)
}
