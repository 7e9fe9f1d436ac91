package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// frame is one function activation in a CPU-profile stack.
type frame struct {
	fn   string // fully qualified function name, e.g. "ddbm/internal/sim.(*Proc).Delay"
	file string // source file path
}

// stackSample is one CPU-profile sample record: its stack, innermost
// frame first, how many profiler ticks landed on it and the CPU time they
// stand for, and its pprof labels.
type stackSample struct {
	stack  []frame
	count  int64
	cpuNs  int64
	labels map[string]string
}

// decodeProfile decodes a gzip-compressed profile.proto, as written by
// runtime/pprof.StartCPUProfile, into stack samples. Inlined calls are
// expanded, so every stack lists each function the sample passed through,
// innermost first. Only the fields the attribution needs are read.
func decodeProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: gunzip: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: gunzip: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]int64 // string indices of key and value
	}
	type rawFunc struct{ name, file int64 }
	var (
		strs        []string
		sampleTypes []int64 // string index of each value's type
		samples     []rawSample
		locs        = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs       = map[uint64]rawFunc{}
	)
	err = walkFields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var typ int64
			if err := walkFields(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					typ = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			sampleTypes = append(sampleTypes, typ)
		case 2: // sample
			var s rawSample
			if err := walkFields(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendPacked(w, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return appendPacked(w, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				case 3:
					var kv [2]int64
					err := walkFields(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 || n == 2 {
							kv[n-1] = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := walkFields(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return walkFields(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locs[id] = fns
		case 5: // function
			var id uint64
			var f rawFunc
			if err := walkFields(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					f.name = int64(v)
				case 4:
					f.file = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcs[id] = f
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	count, cpu := -1, -1
	for i, t := range sampleTypes {
		switch str(t) {
		case "samples":
			count = i
		case "cpu":
			cpu = i
		}
	}
	if count < 0 || cpu < 0 {
		return nil, errors.New("profile: not a CPU profile (no samples/cpu value types)")
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if count >= len(s.values) || cpu >= len(s.values) {
			return nil, errors.New("profile: sample lacks its values")
		}
		st := stackSample{count: s.values[count], cpuNs: s.values[cpu]}
		for _, kv := range s.labels {
			if st.labels == nil {
				st.labels = map[string]string{}
			}
			st.labels[str(kv[0])] = str(kv[1])
		}
		for _, l := range s.locs {
			for _, fid := range locs[l] {
				f := funcs[fid]
				st.stack = append(st.stack, frame{fn: str(f.name), file: str(f.file)})
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// walkFields calls fn for every field of one protobuf message: v carries
// varint and fixed-width values, b the bytes of length-delimited ones.
func walkFields(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			v = binary.LittleEndian.Uint64(msg)
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length-delimited field")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			v = uint64(binary.LittleEndian.Uint32(msg))
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked handles a repeated varint field written either packed
// (one length-delimited run) or unpacked (one varint per field).
func appendPacked(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}
