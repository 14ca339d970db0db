package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Host time per layer comes from a CPU profile of the traced run,
// aggregated by the package of each sample's leaf frame. A leaf in a
// standard-library package other than the runtime (encoding/json, sort,
// ...) is charged to its nearest caller in a repo module, so a layer's
// share includes the library code it calls. runtime/pprof writes the
// gzipped profile.proto format; the standard library has no reader for
// it, so the few fields needed are decoded here.

// excludeLabel marks goroutine work that is not the workload's own
// operation (output checks, probes). Samples carrying it are dropped;
// unlabeled samples, such as the GC's background workers, are kept.
const excludeLabel = "perfbench"

// hostProfile is CPU nanoseconds per layer.
type hostProfile struct {
	NS    map[string]int64
	Total int64
}

func (h hostProfile) share(layer string) float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.NS[layer]) / float64(h.Total)
}

// readProfile decodes a gzipped CPU profile.
func readProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// parseCPUProfile aggregates a gzipped CPU profile by layer.
func parseCPUProfile(gz []byte) (hostProfile, error) {
	p, err := readProfile(gz)
	if err != nil {
		return hostProfile{}, err
	}
	// The CPU profile's sample types are (samples/count, cpu/nanoseconds).
	nsIdx := p.sampleTypes - 1
	funcName := map[uint64]string{}
	for _, f := range p.functions {
		funcName[f.id] = p.str(f.name)
	}
	frames := map[uint64][]uint64{}
	for _, l := range p.locations {
		frames[l.id] = l.funcIDs
	}
	h := hostProfile{NS: map[string]int64{}}
	for _, s := range p.samples {
		if nsIdx < 0 || nsIdx >= len(s.values) || len(s.locs) == 0 {
			continue
		}
		if excluded(p, s) {
			continue
		}
		ns := s.values[nsIdx]
		h.NS[sampleLayer(s.locs, frames, funcName)] += ns
		h.Total += ns
	}
	return h, nil
}

// sampleLayer charges a stack (leaf first) to a layer.
func sampleLayer(locs []uint64, frames map[uint64][]uint64, funcName map[uint64]string) string {
	leaf := ""
	for _, loc := range locs {
		for _, f := range frames[loc] {
			layer := layerOf(funcName[f])
			if leaf == "" {
				leaf = layer
			}
			if leaf != "stdlib" || layer != "stdlib" && !strings.HasPrefix(layer, "runtime_") {
				return layer
			}
		}
	}
	return leaf
}

// layerOf maps a fully qualified function name to the layer it is
// charged to: a repo module name, runtime_gc (allocation and garbage
// collection), runtime_maps, runtime_other, or stdlib.
func layerOf(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	} else {
		// Assembly routines such as aeshashbody carry no package.
		pkg, fn = "runtime", "runtime."+fn
	}
	switch {
	case strings.HasPrefix(pkg, "pacifier/internal/"):
		m := strings.TrimPrefix(pkg, "pacifier/internal/")
		if i := strings.Index(m, "/"); i >= 0 {
			m = m[:i]
		}
		return m
	case pkg == "pacifier":
		return "pacifier"
	case strings.HasPrefix(pkg, "pacifier/"):
		return "bench"
	case pkg == "internal/runtime/maps":
		return "runtime_maps"
	case pkg == "runtime":
		name := strings.TrimPrefix(fn, "runtime.")
		for _, p := range []string{"map", "memhash", "strhash", "aeshash", "interhash", "nilinterhash", "typehash"} {
			if strings.HasPrefix(name, p) {
				return "runtime_maps"
			}
		}
		for _, p := range []string{"malloc", "newobject", "newarray", "makeslice", "growslice", "makemap",
			"gc", "GC", "scan", "grey", "mark", "sweep", "heap", "span", "mcache", "mcentral", "mheap",
			"memclrNoHeapPointers", "wbBuf", "bulkBarrier", "findObject", "nextFree", "typePointers",
			"publicationBarrier", "(*mspan)", "(*mheap)", "(*mcache)", "(*mcentral)", "(*gc", "(*sweep",
			"(*pageAlloc)", "(*pageCache)", "(*markBits)", "(*scavenger", "(*spanSet)", "(*typePointers)",
			"(*activeSweep)", "(*limiterEvent)"} {
			if strings.HasPrefix(name, p) {
				return "runtime_gc"
			}
		}
		return "runtime_other"
	}
	return "stdlib"
}

// profile holds the decoded subset of profile.proto.
type profile struct {
	sampleTypes int
	samples     []sample
	locations   []location
	functions   []function
	strings     []string
}

type sample struct {
	locs      []uint64
	values    []int64
	labelKeys []int64 // string-table indices
}

// excluded reports whether s carries the excludeLabel label.
func excluded(p *profile, s sample) bool {
	for _, k := range s.labelKeys {
		if p.str(k) == excludeLabel {
			return true
		}
	}
	return false
}

type location struct {
	id      uint64
	funcIDs []uint64 // one per Line, leaf (innermost inlined) first
}

type function struct {
	id   uint64
	name int64
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

var errProto = errors.New("malformed protobuf")

// pbuf walks protobuf fields: tag, then a varint or length-delimited
// payload. Fixed-width wire types do not occur in profile.proto.
type pbuf struct{ b []byte }

func (d *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(d.b) == 0 {
			return 0, errProto
		}
		c := d.b[0]
		d.b = d.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProto
}

// field returns the next field's number, wire type, varint value (wire
// type 0) or payload (wire type 2).
func (d *pbuf) field() (num int, wt int, v uint64, payload []byte, err error) {
	tag, err := d.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wt = int(tag>>3), int(tag&7)
	switch wt {
	case 0:
		v, err = d.varint()
	case 2:
		var n uint64
		if n, err = d.varint(); err == nil {
			if n > uint64(len(d.b)) {
				return 0, 0, 0, nil, errProto
			}
			payload, d.b = d.b[:n], d.b[n:]
		}
	default:
		err = errProto
	}
	return num, wt, v, payload, err
}

// uints appends a repeated integer field, packed or not.
func uints(dst []uint64, wt int, v uint64, payload []byte) ([]uint64, error) {
	if wt == 0 {
		return append(dst, v), nil
	}
	d := pbuf{payload}
	for len(d.b) > 0 {
		x, err := d.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

func decodeProfile(raw []byte) (*profile, error) {
	p := &profile{}
	d := pbuf{raw}
	for len(d.b) > 0 {
		num, wt, _, payload, err := d.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 1:
			p.sampleTypes++
		case 2:
			s, err := decodeSample(payload)
			if err != nil {
				return nil, err
			}
			p.samples = append(p.samples, s)
		case 4:
			l, err := decodeLocation(payload)
			if err != nil {
				return nil, err
			}
			p.locations = append(p.locations, l)
		case 5:
			f, err := decodeFunction(payload)
			if err != nil {
				return nil, err
			}
			p.functions = append(p.functions, f)
		case 6:
			if wt != 2 {
				return nil, errProto
			}
			p.strings = append(p.strings, string(payload))
		}
	}
	return p, nil
}

func decodeSample(b []byte) (sample, error) {
	var s sample
	d := pbuf{b}
	for len(d.b) > 0 {
		num, wt, v, payload, err := d.field()
		if err != nil {
			return s, err
		}
		switch num {
		case 1:
			if s.locs, err = uints(s.locs, wt, v, payload); err != nil {
				return s, err
			}
		case 2:
			var vals []uint64
			if vals, err = uints(nil, wt, v, payload); err != nil {
				return s, err
			}
			for _, x := range vals {
				s.values = append(s.values, int64(x))
			}
		case 3:
			ld := pbuf{payload}
			for len(ld.b) > 0 {
				ln, _, lv, _, err := ld.field()
				if err != nil {
					return s, err
				}
				if ln == 1 {
					s.labelKeys = append(s.labelKeys, int64(lv))
				}
			}
		}
	}
	return s, nil
}

func decodeLocation(b []byte) (location, error) {
	var l location
	d := pbuf{b}
	for len(d.b) > 0 {
		num, _, v, payload, err := d.field()
		if err != nil {
			return l, err
		}
		switch num {
		case 1:
			l.id = v
		case 4:
			ld := pbuf{payload}
			for len(ld.b) > 0 {
				ln, _, lv, _, err := ld.field()
				if err != nil {
					return l, err
				}
				if ln == 1 {
					l.funcIDs = append(l.funcIDs, lv)
				}
			}
		}
	}
	return l, nil
}

func decodeFunction(b []byte) (function, error) {
	var f function
	d := pbuf{b}
	for len(d.b) > 0 {
		num, _, v, _, err := d.field()
		if err != nil {
			return f, err
		}
		switch num {
		case 1:
			f.id = v
		case 2:
			f.name = int64(v)
		}
	}
	return f, nil
}
