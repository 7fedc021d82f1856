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

// stageFuncs maps each CPU-share metric to the functions whose presence
// anywhere on a sampled stack counts toward it (a name ending in "." is
// a package prefix).
var stageFuncs = []struct{ metric, fn string }{
	{"pipeline.fetch_share", "smthill/internal/pipeline.(*Machine).fetch"},
	{"pipeline.dispatch_share", "smthill/internal/pipeline.(*Machine).dispatch"},
	{"pipeline.issue_share", "smthill/internal/pipeline.(*Machine).issue"},
	{"pipeline.writeback_share", "smthill/internal/pipeline.(*Machine).writeback"},
	{"pipeline.commit_share", "smthill/internal/pipeline.(*Machine).commit"},
	{"trace.gen_share", "smthill/internal/trace.(*Gen).Next"},
	{"cache.access_share", "smthill/internal/cache."},
}

// stackShares accumulates, over the traced rounds' CPU profiles, the
// cumulative share of samples whose stack holds each stage function.
type stackShares struct {
	total float64
	hits  map[string]float64
	// raw is the first traced round's profile, written out for pprof.
	raw []byte
}

type share struct {
	name string
	pct  float64
}

func (s *stackShares) shares() []share {
	out := make([]share, 0, len(stageFuncs))
	for _, st := range stageFuncs {
		pct := 0.0
		if s.total > 0 {
			pct = 100 * s.hits[st.metric] / s.total
		}
		out = append(out, share{st.metric, pct})
	}
	return out
}

func matches(fn, want string) bool {
	if strings.HasSuffix(want, ".") {
		return strings.HasPrefix(fn, want)
	}
	return fn == want
}

// add folds one gzipped pprof CPU profile into the shares. It decodes
// only the profile.proto fields it needs: samples (location ids and the
// sample count), locations (their inlined function ids), functions and
// the string table.
func (s *stackShares) add(raw []byte) error {
	if len(raw) == 0 {
		return nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	pb, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	type sample struct {
		locs  []uint64
		count uint64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> inlined function ids
		fnName  = map[uint64]uint64{}   // function id -> string-table index
		strs    []string
	)
	err = pbFields(pb, func(num, wire int, v uint64, data []byte) error {
		switch num {
		case 2: // Sample: location_id = 1, value = 2 (value[0] is the sample count)
			var sm sample
			counted := false
			err := pbFields(data, func(num, wire int, v uint64, data []byte) error {
				if num != 1 && num != 2 {
					return nil
				}
				ids, err := pbUints(wire, v, data)
				switch {
				case num == 1:
					sm.locs = append(sm.locs, ids...)
				case !counted && len(ids) > 0:
					sm.count, counted = ids[0], true
				}
				return err
			})
			samples = append(samples, sm)
			return err
		case 4: // Location: id = 1, line = 4 (Line: function_id = 1)
			var id uint64
			var fns []uint64
			err := pbFields(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return pbFields(data, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function: id = 1, name = 2
			var id, name uint64
			err := pbFields(data, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return err
	}
	if s.hits == nil {
		s.hits = map[string]float64{}
	}
	for _, sm := range samples {
		s.total += float64(sm.count)
		seen := map[string]bool{}
		for _, loc := range sm.locs {
			for _, f := range locFns[loc] {
				idx := fnName[f]
				if idx >= uint64(len(strs)) {
					continue
				}
				for _, st := range stageFuncs {
					if !seen[st.metric] && matches(strs[idx], st.fn) {
						seen[st.metric] = true
						s.hits[st.metric] += float64(sm.count)
					}
				}
			}
		}
	}
	return nil
}

// pbFields walks the fields of one protobuf message, calling fn with the
// field number, wire type, the value of a varint or fixed field, and the
// payload of a length-delimited one.
func pbFields(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("pprof: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("pprof: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("pprof: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("pprof: bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("pprof: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("pprof: wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbUints decodes a repeated varint field element: one value, or a
// packed run of them.
func pbUints(wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errors.New("pprof: bad packed varint")
		}
		out = append(out, x)
		data = data[n:]
	}
	return out, nil
}
