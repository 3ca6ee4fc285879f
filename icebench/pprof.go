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

// The Go CPU profile is a gzipped profile.proto message. The standard
// library ships a writer but no reader, so this file decodes the few
// fields the layer shares need: samples, locations, functions and the
// string table.

// profileSample is one stack: function names leaf first, and its value
// (CPU nanoseconds).
type profileSample struct {
	stack []string
	value int64
}

// parseProfile decodes a gzipped CPU profile.
func parseProfile(data []byte) ([]profileSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []sample
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
		funcs   = map[uint64]int64{}    // function id → name string index
		strs    []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch {
		case num == 2 && wire == 2: // Sample
			var s sample
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, wire, v, b)
				case 2:
					for _, x := range appendPacked(nil, wire, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case num == 4 && wire == 2: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch {
				case num == 1:
					id = v
				case num == 4 && wire == 2: // Line
					return eachField(b, func(num int, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case num == 5 && wire == 2: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num int, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case num == 6 && wire == 2: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	name := func(fn uint64) string {
		if i, ok := funcs[fn]; ok && i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return "?"
	}
	out := make([]profileSample, 0, len(samples))
	for _, s := range samples {
		ps := profileSample{}
		if n := len(s.values); n > 0 {
			ps.value = s.values[n-1] // cpu nanoseconds follow the sample count
		}
		for _, l := range s.locs {
			for _, fn := range locs[l] {
				ps.stack = append(ps.stack, name(fn))
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and either its varint/fixed value or its bytes.
func eachField(b []byte, fn func(num int, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
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
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, packed or not.
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// layerOf maps a function name to the benchmark's layer names. Runtime
// and standard-library helper packages return "": their time belongs to
// the layer that called them (mm's slice growth is mm's time).
func layerOf(fn string) string {
	pkg := fn
	if i := strings.IndexByte(pkg, '['); i >= 0 { // generic instantiation
		pkg = pkg[:i]
	}
	slash := strings.LastIndexByte(pkg, '/')
	if i := strings.IndexByte(pkg[slash+1:], '.'); i >= 0 {
		pkg = pkg[:slash+1+i]
	}
	const internal = "github.com/eurosys23/ice/internal/"
	if strings.HasPrefix(pkg, internal) {
		switch p := strings.TrimPrefix(pkg, internal); p {
		case "core", "policy", "predict":
			return "policy"
		case "workload", "app", "device":
			return "workload"
		case "obs", "metrics", "trace":
			return "obs"
		case "service", "tenant":
			return "service"
		default:
			return p
		}
	}
	switch {
	case strings.HasPrefix(pkg, "crypto/"):
		return "crypto"
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "encoding/json" ||
		pkg == "mime" || strings.HasPrefix(pkg, "mime/"):
		return "nethttp_json"
	case !strings.Contains(pkg, ".") && pkg != "main": // standard library
		return ""
	}
	return "other"
}

// attribute names the layer a stack's self time belongs to: the
// innermost frame outside the runtime and standard-library helpers, or
// "runtime" when the whole stack is runtime (scheduler, idle).
func attribute(stack []string) string {
	for _, fn := range stack {
		if l := layerOf(fn); l != "" {
			return l
		}
	}
	return "runtime"
}

// isGC reports whether a stack belongs to the garbage collector:
// background marking, sweeping, scavenging or a mutator's mark assist.
func isGC(stack []string) bool {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" || fn == "runtime.bgscavenge" {
			return true
		}
	}
	return false
}

// profileLayers lists the layers whose self share the traced run reports.
var profileLayers = []string{
	"sim", "sched", "mm", "zram", "storage", "android", "proc", "policy", "workload",
	"harness", "experiments", "obs", "service", "nethttp_json", "crypto", "runtime", "other",
}

// selfShares groups profile self time by layer (see attribute); "gc"
// holds the samples isGC claims, whatever their leaf.
func selfShares(samples []profileSample) map[string]float64 {
	var total int64
	by := map[string]int64{}
	for _, s := range samples {
		if len(s.stack) == 0 {
			continue
		}
		total += s.value
		if isGC(s.stack) {
			by["gc"] += s.value
			continue
		}
		by[attribute(s.stack)] += s.value
	}
	out := map[string]float64{}
	for k, v := range by {
		if total > 0 {
			out[k] = float64(v) / float64(total)
		}
	}
	return out
}
