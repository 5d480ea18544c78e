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

// cpuLayers are the program layers a CPU profile's self time is bucketed
// into; "other" takes the rest (the standard library, the harness, and the
// program packages on no hot path).
var cpuLayers = []string{"cluster", "eventq", "sim", "stats", "model", "control", "fleet", "runtime"}

// cpuBuckets is cpuLayers plus "other": every sample lands in one.
var cpuBuckets = append(cpuLayers[:len(cpuLayers):len(cpuLayers)], "other")

const internalPrefix = "github.com/jockeysim/jockey/internal/"

// packageOf returns the import path of the package that defines fn, a
// symbolized function name. Type arguments are cut first:
// "…/internal/eventq.(*Queue[…/internal/sim.event]).down" belongs to
// eventq, not to the sim package its type argument names.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOf maps a package import path to its cpuLayers bucket or "other".
func layerOf(pkg string) string {
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	if name, ok := strings.CutPrefix(pkg, internalPrefix); ok {
		for _, l := range cpuLayers {
			if name == l {
				return l
			}
		}
	}
	return "other"
}

// cpuSplit is a CPU profile's self time bucketed by layer.
type cpuSplit struct {
	samples int64            // total samples
	nanos   int64            // total sampled CPU time
	layer   map[string]int64 // sampled CPU nanoseconds per layer
}

// splitCPUProfile decodes a gzipped pprof CPU profile, as written by
// runtime/pprof, and charges each sample's CPU time to the layer of its
// leaf frame (the innermost function at the sampled PC, inlined or not).
func splitCPUProfile(gz []byte) (cpuSplit, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return cpuSplit{}, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return cpuSplit{}, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return cpuSplit{}, fmt.Errorf("cpu profile: %w", err)
	}
	s := cpuSplit{layer: make(map[string]int64)}
	for _, smp := range p.samples {
		if len(smp.values) < 2 || len(smp.locations) == 0 {
			return cpuSplit{}, errors.New("cpu profile: sample without count, time or location")
		}
		s.samples += smp.values[0]
		s.nanos += smp.values[1]
		layer := "other"
		if fn, ok := p.locLeaf[smp.locations[0]]; ok {
			layer = layerOf(packageOf(p.strings[p.funcName[fn]]))
		}
		s.layer[layer] += smp.values[1]
	}
	return s, nil
}

// The profile.proto subset the split needs (github.com/google/pprof,
// proto/profile.proto): Profile.sample = 2, .location = 4, .function = 5,
// .string_table = 6; Sample.location_id = 1, .value = 2; Location.id = 1,
// .line = 4; Line.function_id = 1; Function.id = 1, .name = 2.
type profileData struct {
	samples  []sampleData
	locLeaf  map[uint64]uint64 // location id → function id of its first line
	funcName map[uint64]int64  // function id → string table index
	strings  []string
}

type sampleData struct {
	locations []uint64
	values    []int64
}

func decodeProfile(b []byte) (*profileData, error) {
	p := &profileData{locLeaf: map[uint64]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 2:
			var s sampleData
			if err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locations, v, data)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, v, data); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case 4:
			var id, fn uint64
			first := true
			if err := eachField(data, func(num int, v uint64, data []byte) error {
				switch {
				case num == 1:
					id = v
				case num == 4 && first:
					first = false
					return eachField(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			if !first {
				p.locLeaf[id] = fn
			}
		case 5:
			var id uint64
			var name int64
			if err := eachField(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.funcName[id] = name
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, fmt.Errorf("function name index %d outside a %d-entry string table", idx, len(p.strings))
		}
	}
	return p, nil
}

// eachField walks a protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited payload. Fixed-width
// fields are skipped; profile.proto uses none that the split reads.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length-delimited field")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, which arrive
// either one per field (v) or packed into one payload (data).
func appendVarints(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
