package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile is a gzipped profile.proto message. Only the fields the
// attribution needs are decoded: samples (location ids, values), locations
// (their lines' function ids, innermost first) and functions (name).

type pbuf struct {
	b []byte
}

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, io.ErrUnexpectedEOF
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("profile: varint overflow")
}

// field returns the next field number, wire type, varint value (types 0)
// and bytes (type 2).
func (p *pbuf) field() (num int, typ int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return
	}
	num, typ = int(key>>3), int(key&7)
	switch typ {
	case 0:
		v, err = p.varint()
	case 1:
		if len(p.b) < 8 {
			return 0, 0, 0, nil, io.ErrUnexpectedEOF
		}
		p.b = p.b[8:]
	case 2:
		var n uint64
		if n, err = p.varint(); err != nil {
			return
		}
		if uint64(len(p.b)) < n {
			return 0, 0, 0, nil, io.ErrUnexpectedEOF
		}
		data, p.b = p.b[:n], p.b[n:]
	case 5:
		if len(p.b) < 4 {
			return 0, 0, 0, nil, io.ErrUnexpectedEOF
		}
		p.b = p.b[4:]
	default:
		err = fmt.Errorf("profile: wire type %d", typ)
	}
	return
}

// uints decodes a repeated uint64 field, packed or not.
func uints(typ int, v uint64, data []byte, dst []uint64) ([]uint64, error) {
	if typ == 0 {
		return append(dst, v), nil
	}
	q := pbuf{data}
	for len(q.b) > 0 {
		x, err := q.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

type profSample struct {
	locs  []uint64
	value int64 // last sample value: CPU nanoseconds
}

// stacks decodes a CPU profile into per-sample function-name stacks,
// innermost frame first, with each stack's CPU-time weight.
func stacks(gz []byte) ([][]string, []int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, err
	}
	var samples []profSample
	locFuncs := map[uint64][]uint64{}
	funcName := map[uint64]int64{}
	var strs []string
	p := pbuf{raw}
	for len(p.b) > 0 {
		num, _, _, data, err := p.field()
		if err != nil {
			return nil, nil, err
		}
		switch num {
		case 2: // sample
			var s profSample
			var vals []uint64
			q := pbuf{data}
			for len(q.b) > 0 {
				n, t, x, d, err := q.field()
				if err != nil {
					return nil, nil, err
				}
				switch n {
				case 1:
					s.locs, err = uints(t, x, d, s.locs)
				case 2:
					vals, err = uints(t, x, d, vals)
				}
				if err != nil {
					return nil, nil, err
				}
			}
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			q := pbuf{data}
			for len(q.b) > 0 {
				n, _, x, d, err := q.field()
				if err != nil {
					return nil, nil, err
				}
				switch n {
				case 1:
					id = x
				case 4: // line: function_id = 1
					r := pbuf{d}
					for len(r.b) > 0 {
						ln, _, lx, _, err := r.field()
						if err != nil {
							return nil, nil, err
						}
						if ln == 1 {
							fns = append(fns, lx)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			q := pbuf{data}
			for len(q.b) > 0 {
				n, _, x, _, err := q.field()
				if err != nil {
					return nil, nil, err
				}
				switch n {
				case 1:
					id = x
				case 2:
					name = int64(x)
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	out := make([][]string, len(samples))
	weights := make([]int64, len(samples))
	for i, s := range samples {
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				if idx := funcName[f]; idx >= 0 && int(idx) < len(strs) {
					out[i] = append(out[i], strs[idx])
				}
			}
		}
		weights[i] = s.value
	}
	return out, weights, nil
}

const internalPrefix = "repro/internal/"

// moduleOf attributes a stack to the innermost repro/internal module on
// it; a stack with none goes to "runtime" when its leaf is the Go runtime
// (GC workers, scheduler) and to "other" otherwise.
func moduleOf(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, internalPrefix) {
			rest := fn[len(internalPrefix):]
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
	}
	if len(stack) > 0 && strings.HasPrefix(stack[0], "runtime.") {
		return "runtime"
	}
	return "other"
}

// addModuleTime adds each module's CPU time in the profile to by.
func addModuleTime(by map[string]int64, gz []byte) error {
	st, w, err := stacks(gz)
	if err != nil {
		return err
	}
	for i, s := range st {
		by[moduleOf(s)] += w[i]
	}
	return nil
}

// fractions turns per-module CPU time into shares of the total.
func fractions(by map[string]int64) map[string]float64 {
	var total int64
	for _, v := range by {
		total += v
	}
	out := map[string]float64{}
	for m, v := range by {
		if total > 0 {
			out[m] = float64(v) / float64(total)
		}
	}
	return out
}
