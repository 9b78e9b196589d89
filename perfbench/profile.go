package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// internalPkgs are the program's packages a CPU sample can be charged
// to. Everything else is "gc" (collector work) or "other" (the standard
// library, the runtime scheduler, the façade and this benchmark).
var internalPkgs = []string{
	"admission", "browser", "checkpoint", "core", "dom", "fetch", "frontier",
	"html", "index", "js", "lsh", "model", "obs", "pagerank", "query",
	"router", "serve", "shingle", "webapp",
}

// cpuLayers are every layer attribute charges a sample to.
var cpuLayers = append(append([]string(nil), internalPkgs...), "gc", "other")

const internalPrefix = "ajaxcrawl/internal/"

// gcFrames mark a stack as garbage-collector work wherever they appear:
// background marking and sweeping, and the mark assists that the
// allocating goroutine is charged with.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcMarkDone", "runtime.gcMarkTermination",
}

// attribute charges one stack (innermost frame first) to a layer: "gc"
// when any frame is collector work, else the package of the innermost
// ajaxcrawl/internal frame, else "other".
func attribute(stack []string) string {
	for _, fn := range stack {
		for _, g := range gcFrames {
			if fn == g {
				return "gc"
			}
		}
	}
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
	}
	return "other"
}

// cpuShares decodes a runtime/pprof CPU profile and returns the share
// of sampled CPU time charged to each layer by attribute, plus the total
// sampled time in nanoseconds.
func cpuShares(profile []byte) (map[string]float64, int64, error) {
	samples, err := decodeProfile(profile)
	if err != nil {
		return nil, 0, err
	}
	byLayer := map[string]int64{}
	var total int64
	for _, s := range samples {
		byLayer[attribute(s.stack)] += s.value
		total += s.value
	}
	shares := map[string]float64{}
	for k, v := range byLayer {
		shares[k] = ratio(float64(v), float64(total))
	}
	return shares, total, nil
}

// profSample is one decoded sample: function names from the innermost
// frame outwards (inlined frames included) and its last value, which
// for a CPU profile is nanoseconds.
type profSample struct {
	stack []string
	value int64
}

// decodeProfile reads the gzipped profile.proto that runtime/pprof
// writes. Only the fields attribution needs are decoded: samples,
// locations with their lines, functions and the string table.
func decodeProfile(data []byte) ([]profSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		raws    []rawSample
		locFns  = map[uint64][]uint64{} // location ID -> function IDs, innermost first
		fnName  = map[uint64]uint64{}   // function ID -> string index
		strtab  []string
		failure error
	)
	err := eachField(data, func(num int, wire int, v uint64, b []byte) {
		switch num {
		case 2: // sample
			var s rawSample
			failure = firstErr(failure, eachField(b, func(num, wire int, v uint64, b []byte) {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					for _, x := range appendVarints(nil, wire, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
			}))
			raws = append(raws, s)
		case 4: // location
			var id uint64
			var fns []uint64
			failure = firstErr(failure, eachField(b, func(num, wire int, v uint64, b []byte) {
				switch num {
				case 1:
					id = v
				case 4: // line
					failure = firstErr(failure, eachField(b, func(num, wire int, v uint64, b []byte) {
						if num == 1 {
							fns = append(fns, v)
						}
					}))
				}
			}))
			locFns[id] = fns
		case 5: // function
			var id, name uint64
			failure = firstErr(failure, eachField(b, func(num, wire int, v uint64, b []byte) {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
			}))
			fnName[id] = name
		case 6: // string_table
			strtab = append(strtab, string(b))
		}
	})
	if err = firstErr(err, failure); err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(raws))
	for _, r := range raws {
		if len(r.values) == 0 {
			continue
		}
		s := profSample{value: r.values[len(r.values)-1]}
		for _, loc := range r.locs {
			for _, fn := range locFns[loc] {
				if si := fnName[fn]; si < uint64(len(strtab)) {
					s.stack = append(s.stack, strtab[si])
				}
			}
		}
		out = append(out, s)
	}
	return out, nil
}

func firstErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks the fields of one protobuf message, calling fn with
// the value of varint fields and the bytes of length-delimited ones.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte)) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
			fn(num, wire, v, nil)
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			fn(num, wire, 0, b[n:n+int(l)])
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field given either unpacked
// (one value) or packed (a run of varints).
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
