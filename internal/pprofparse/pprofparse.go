// Package pprofparse reads Go pprof protobuf CPU profiles — the gzipped
// profile.proto format runtime/pprof and net/http/pprof emit — without
// any protobuf dependency: the wire format is decoded by hand (varints,
// tags, length-delimited payloads), keeping the module dependency-free.
//
// This is FBDetect's front door for real continuous-profiling data: a
// parsed Profile converts into the stacktrace.SampleSet model (convert.go),
// from which per-subroutine gCPU series are derived exactly as for the
// fleet simulator's synthetic samples, or folds straight into those gCPU
// values (Profile.Fold) without building the sample set. The package also includes a
// deterministic encoder (encode.go) so tests, goldens, and demos can
// fabricate valid profiles without shelling out to a profiler.
package pprofparse

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// DefaultMaxDecompressed caps how far Parse will inflate a gzipped
// profile (64 MiB). Uploaded profiles pass through HTTP body limits first,
// but the gunzip step needs its own guard: a 4 KiB gzip bomb can expand
// to gigabytes.
const DefaultMaxDecompressed = 64 << 20

// ValueType describes one sample value dimension, e.g. {"cpu",
// "nanoseconds"} or {"samples", "count"}.
type ValueType struct {
	Type string
	Unit string
}

// Line is one source line attributed to a location. A location with
// multiple lines records inlining: Lines[0] is the innermost (leaf-most)
// inlined call, the last entry the physical function.
type Line struct {
	Function string
	File     string
	Line     int64
}

// Location is one resolved program address. Address-only locations (no
// symbol information) have empty Lines.
type Location struct {
	ID      uint64
	Address uint64
	Lines   []Line
}

// Sample is one stack observation: LocationIDs leaf-first (the pprof
// convention) and one value per profile sample type.
type Sample struct {
	LocationIDs []uint64
	Values      []int64
}

// Profile is a decoded pprof profile, with all string-table and function
// indirections resolved.
type Profile struct {
	SampleTypes       []ValueType
	DefaultSampleType string
	Samples           []Sample
	Locations         map[uint64]*Location
	TimeNanos         int64
	DurationNanos     int64
	PeriodType        ValueType
	Period            int64
}

// raw intermediate structures: the wire format references the string
// table and function table by index/id, which are only fully known after
// the whole message is scanned.
type rawFunction struct {
	id               int64
	nameIdx, fileIdx int64
}

type rawLine struct {
	funcID int64
	line   int64
}

// rawLocation's lines are lines[start:end] of the parse's shared line
// slab.
type rawLocation struct {
	id         uint64
	address    uint64
	start, end int
}

// sampleEnd marks where one sample's location IDs and values end in the
// parse's shared slabs; the next sample starts there.
type sampleEnd struct{ locs, values int }

// Parse decodes a pprof profile from data, transparently gunzipping (the
// format runtime/pprof writes is always gzipped; raw protobuf is accepted
// too). Decompression is capped at DefaultMaxDecompressed bytes.
func Parse(data []byte) (*Profile, error) {
	return ParseLimit(data, DefaultMaxDecompressed)
}

// ParseLimit is Parse with an explicit decompressed-size cap.
func ParseLimit(data []byte, maxDecompressed int64) (*Profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		raw, err := gunzip(data, maxDecompressed)
		if err != nil {
			return nil, err
		}
		data = raw
	}
	return parseUncompressed(data)
}

// gzipReader is a pooled gunzip state: the reader and the bytes.Reader it
// reads from, so that emptying the latter unpins the upload from both.
type gzipReader struct {
	src bytes.Reader
	zr  gzip.Reader
}

var gzipReaders sync.Pool

// gunzip inflates data into one buffer, refusing to grow it past
// maxDecompressed. The buffer is pre-sized from the gzip trailer's ISIZE,
// which the sender controls: the hint is clamped to 16x the compressed
// length and to the cap, so a forged trailer costs at most that much.
func gunzip(data []byte, maxDecompressed int64) ([]byte, error) {
	g, _ := gzipReaders.Get().(*gzipReader)
	if g == nil {
		g = new(gzipReader)
	}
	defer func() {
		// Reset to an empty reader before pooling, so the pooled state
		// holds no reference to this upload.
		g.src.Reset(nil)
		g.zr.Reset(&g.src)
		gzipReaders.Put(g)
	}()
	g.src.Reset(data)
	if err := g.zr.Reset(&g.src); err != nil {
		return nil, fmt.Errorf("pprofparse: bad gzip header: %w", err)
	}
	hint := min(int64(binary.LittleEndian.Uint32(data[len(data)-4:])), 16*int64(len(data)), maxDecompressed)
	// One byte past the hint, so that a correct hint ends on io.EOF
	// without growing the buffer.
	buf := make([]byte, 0, max(hint+1, 512))
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		room := int64(cap(buf) - len(buf))
		room = min(room, maxDecompressed+1-int64(len(buf)))
		n, err := g.zr.Read(buf[len(buf) : len(buf)+int(room)])
		buf = buf[:len(buf)+n]
		if int64(len(buf)) > maxDecompressed {
			return nil, fmt.Errorf("pprofparse: profile inflates beyond %d bytes", maxDecompressed)
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, fmt.Errorf("pprofparse: gunzip: %w", err)
		}
	}
}

func parseUncompressed(data []byte) (*Profile, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("pprofparse: empty profile")
	}
	// Variable-length parts land in shared slabs, carved up once the
	// whole message is read: every sample's location IDs and values, every
	// location's lines. String-table entries are substrings of one copy of
	// data. A first pass counts the top-level fields to size them. The
	// sample slabs are guesses (a location ID or value takes one or two
	// bytes), capped by the bytes that would hold them: no sizing asks
	// for more than a profile of that length could fill.
	n := countFields(data)
	var (
		strtab       = make([]string, 0, n.strings)
		strdata      string
		sampleTypes  []struct{ typ, unit int64 }
		periodType   struct{ typ, unit int64 }
		sampleEnds   = make([]sampleEnd, 0, n.samples)
		locIDs       = make([]uint64, 0, n.sampleBytes/2)
		values       = make([]int64, 0, min(int64(n.samples)*int64(n.sampleTypes), int64(n.sampleBytes/2)))
		rawLocs      = make([]rawLocation, 0, n.locations)
		rawLines     = make([]rawLine, 0, n.locations)
		rawFuncs     = make([]rawFunction, 0, n.functions)
		p            = &Profile{}
		defaultSTIdx int64
	)
	d := decoder{buf: data}
	for !d.done() {
		field, wire, err := d.tag()
		if err != nil {
			return nil, fmt.Errorf("pprofparse: %w", err)
		}
		switch field {
		case 1: // sample_type
			msg, err := expectBytes(&d, wire, "sample_type")
			if err != nil {
				return nil, err
			}
			vt, err := parseValueType(msg)
			if err != nil {
				return nil, err
			}
			sampleTypes = append(sampleTypes, vt)
		case 2: // sample
			msg, err := expectBytes(&d, wire, "sample")
			if err != nil {
				return nil, err
			}
			locIDs, values, err = parseSample(msg, locIDs, values)
			if err != nil {
				return nil, err
			}
			sampleEnds = append(sampleEnds, sampleEnd{len(locIDs), len(values)})
		case 4: // location
			msg, err := expectBytes(&d, wire, "location")
			if err != nil {
				return nil, err
			}
			var loc rawLocation
			loc, rawLines, err = parseLocation(msg, rawLines)
			if err != nil {
				return nil, err
			}
			rawLocs = append(rawLocs, loc)
		case 5: // function
			msg, err := expectBytes(&d, wire, "function")
			if err != nil {
				return nil, err
			}
			fn, err := parseFunction(msg)
			if err != nil {
				return nil, err
			}
			rawFuncs = append(rawFuncs, fn)
		case 6: // string_table
			msg, err := expectBytes(&d, wire, "string_table")
			if err != nil {
				return nil, err
			}
			if strdata == "" {
				strdata = string(data)
			}
			strtab = append(strtab, strdata[d.pos-len(msg):d.pos])
		case 9: // time_nanos
			v, err := expectVarint(&d, wire, "time_nanos")
			if err != nil {
				return nil, err
			}
			p.TimeNanos = int64Field(v)
		case 10: // duration_nanos
			v, err := expectVarint(&d, wire, "duration_nanos")
			if err != nil {
				return nil, err
			}
			p.DurationNanos = int64Field(v)
		case 11: // period_type
			msg, err := expectBytes(&d, wire, "period_type")
			if err != nil {
				return nil, err
			}
			periodType, err = parseValueType(msg)
			if err != nil {
				return nil, err
			}
		case 12: // period
			v, err := expectVarint(&d, wire, "period")
			if err != nil {
				return nil, err
			}
			p.Period = int64Field(v)
		case 14: // default_sample_type
			v, err := expectVarint(&d, wire, "default_sample_type")
			if err != nil {
				return nil, err
			}
			defaultSTIdx = int64Field(v)
		default: // mapping, drop/keep_frames, labels, comments: skipped
			if err := d.skip(wire); err != nil {
				return nil, fmt.Errorf("pprofparse: field %d: %w", field, err)
			}
		}
	}

	// Resolve string-table and function indirections.
	str := func(idx int64, what string) (string, error) {
		if idx < 0 || idx >= int64(len(strtab)) {
			return "", fmt.Errorf("pprofparse: %s string index %d outside table of %d", what, idx, len(strtab))
		}
		return strtab[idx], nil
	}
	for _, vt := range sampleTypes {
		typ, err := str(vt.typ, "sample_type.type")
		if err != nil {
			return nil, err
		}
		unit, err := str(vt.unit, "sample_type.unit")
		if err != nil {
			return nil, err
		}
		p.SampleTypes = append(p.SampleTypes, ValueType{Type: typ, Unit: unit})
	}
	if periodType.typ != 0 || periodType.unit != 0 {
		typ, err := str(periodType.typ, "period_type.type")
		if err != nil {
			return nil, err
		}
		unit, err := str(periodType.unit, "period_type.unit")
		if err != nil {
			return nil, err
		}
		p.PeriodType = ValueType{Type: typ, Unit: unit}
	}
	if defaultSTIdx != 0 {
		name, err := str(defaultSTIdx, "default_sample_type")
		if err != nil {
			return nil, err
		}
		p.DefaultSampleType = name
	}
	funcs := make(map[int64]*rawFunction, len(rawFuncs))
	for i := range rawFuncs {
		fn := &rawFuncs[i]
		if _, dup := funcs[fn.id]; dup {
			return nil, fmt.Errorf("pprofparse: duplicate function id %d", fn.id)
		}
		funcs[fn.id] = fn
	}
	p.Locations = make(map[uint64]*Location, len(rawLocs))
	locs := make([]Location, len(rawLocs))
	lines := make([]Line, 0, len(rawLines))
	for i, rl := range rawLocs {
		if rl.id == 0 {
			return nil, fmt.Errorf("pprofparse: location with id 0")
		}
		if _, dup := p.Locations[rl.id]; dup {
			return nil, fmt.Errorf("pprofparse: duplicate location id %d", rl.id)
		}
		loc := &locs[i]
		loc.ID, loc.Address = rl.id, rl.address
		for _, ln := range rawLines[rl.start:rl.end] {
			fn, ok := funcs[ln.funcID]
			if !ok {
				return nil, fmt.Errorf("pprofparse: location %d references unknown function %d", rl.id, ln.funcID)
			}
			name, err := str(fn.nameIdx, "function.name")
			if err != nil {
				return nil, err
			}
			file, err := str(fn.fileIdx, "function.filename")
			if err != nil {
				return nil, err
			}
			lines = append(lines, Line{Function: name, File: file, Line: ln.line})
		}
		if n := rl.end - rl.start; n > 0 {
			loc.Lines = lines[len(lines)-n : len(lines) : len(lines)]
		}
		p.Locations[rl.id] = loc
	}
	if len(sampleEnds) > 0 {
		p.Samples = make([]Sample, len(sampleEnds))
	}
	var from sampleEnd
	for i, end := range sampleEnds {
		s := &p.Samples[i]
		if end.locs > from.locs {
			s.LocationIDs = locIDs[from.locs:end.locs:end.locs]
		}
		if end.values > from.values {
			s.Values = values[from.values:end.values:end.values]
		}
		from = end
		if len(s.Values) != len(p.SampleTypes) {
			return nil, fmt.Errorf("pprofparse: sample carries %d values, profile declares %d sample types",
				len(s.Values), len(p.SampleTypes))
		}
		for _, id := range s.LocationIDs {
			if _, ok := p.Locations[id]; !ok {
				return nil, fmt.Errorf("pprofparse: sample references unknown location %d", id)
			}
		}
	}
	if len(p.SampleTypes) == 0 && len(p.Samples) > 0 {
		return nil, fmt.Errorf("pprofparse: samples without sample types")
	}
	return p, nil
}

// fieldCounts tallies a profile's top-level repeated fields.
type fieldCounts struct {
	sampleTypes, samples, sampleBytes, locations, functions, strings int
}

// countFields counts the top-level fields of a profile message, stopping
// silently at the first malformed one: the parse proper reports it.
func countFields(data []byte) fieldCounts {
	var n fieldCounts
	d := decoder{buf: data}
	for !d.done() {
		field, wire, err := d.tag()
		if err != nil {
			break
		}
		if wire != wireBytes {
			if d.skip(wire) != nil {
				break
			}
			continue
		}
		msg, err := d.bytes()
		if err != nil {
			break
		}
		switch field {
		case 1:
			n.sampleTypes++
		case 2:
			n.samples++
			n.sampleBytes += len(msg)
		case 4:
			n.locations++
		case 5:
			n.functions++
		case 6:
			n.strings++
		}
	}
	return n
}

// expectBytes reads a length-delimited field or errors with the field
// name — wire-type confusion is how a hostile payload probes a parser.
func expectBytes(d *decoder, wire int, what string) ([]byte, error) {
	if wire != wireBytes {
		return nil, fmt.Errorf("pprofparse: %s: want length-delimited, got wire type %d", what, wire)
	}
	msg, err := d.bytes()
	if err != nil {
		return nil, fmt.Errorf("pprofparse: %s: %w", what, err)
	}
	return msg, nil
}

func expectVarint(d *decoder, wire int, what string) (uint64, error) {
	if wire != wireVarint {
		return 0, fmt.Errorf("pprofparse: %s: want varint, got wire type %d", what, wire)
	}
	v, err := d.varint()
	if err != nil {
		return 0, fmt.Errorf("pprofparse: %s: %w", what, err)
	}
	return v, nil
}

func parseValueType(msg []byte) (struct{ typ, unit int64 }, error) {
	var vt struct{ typ, unit int64 }
	d := decoder{buf: msg}
	for !d.done() {
		field, wire, err := d.tag()
		if err != nil {
			return vt, fmt.Errorf("pprofparse: value_type: %w", err)
		}
		switch field {
		case 1:
			v, err := expectVarint(&d, wire, "value_type.type")
			if err != nil {
				return vt, err
			}
			vt.typ = int64Field(v)
		case 2:
			v, err := expectVarint(&d, wire, "value_type.unit")
			if err != nil {
				return vt, err
			}
			vt.unit = int64Field(v)
		default:
			if err := d.skip(wire); err != nil {
				return vt, fmt.Errorf("pprofparse: value_type: %w", err)
			}
		}
	}
	return vt, nil
}

// parseSample appends one sample's location IDs and values to the shared
// slabs.
func parseSample(msg []byte, locIDs []uint64, values []int64) ([]uint64, []int64, error) {
	d := decoder{buf: msg}
	for !d.done() {
		field, wire, err := d.tag()
		if err != nil {
			return locIDs, values, fmt.Errorf("pprofparse: sample: %w", err)
		}
		switch field {
		case 1: // location_id, packed or not
			payload, single, err := repeatedPayload(&d, wire, "sample.location_id")
			if err != nil {
				return locIDs, values, err
			}
			locIDs, err = packedUint64(locIDs, payload, wire, single)
			if err != nil {
				return locIDs, values, fmt.Errorf("pprofparse: sample.location_id: %w", err)
			}
		case 2: // value, packed or not
			payload, single, err := repeatedPayload(&d, wire, "sample.value")
			if err != nil {
				return locIDs, values, err
			}
			values, err = packedInt64(values, payload, wire, single)
			if err != nil {
				return locIDs, values, fmt.Errorf("pprofparse: sample.value: %w", err)
			}
		default: // labels skipped
			if err := d.skip(wire); err != nil {
				return locIDs, values, fmt.Errorf("pprofparse: sample: %w", err)
			}
		}
	}
	return locIDs, values, nil
}

// repeatedPayload reads the raw payload of a repeated scalar field that
// may be packed (length-delimited) or unpacked (single varint).
func repeatedPayload(d *decoder, wire int, what string) ([]byte, uint64, error) {
	switch wire {
	case wireBytes:
		payload, err := d.bytes()
		if err != nil {
			return nil, 0, fmt.Errorf("pprofparse: %s: %w", what, err)
		}
		return payload, 0, nil
	case wireVarint:
		v, err := d.varint()
		if err != nil {
			return nil, 0, fmt.Errorf("pprofparse: %s: %w", what, err)
		}
		return nil, v, nil
	}
	return nil, 0, fmt.Errorf("pprofparse: %s: unexpected wire type %d", what, wire)
}

// parseLocation appends one location's lines to the shared slab.
func parseLocation(msg []byte, lines []rawLine) (rawLocation, []rawLine, error) {
	loc := rawLocation{start: len(lines)}
	d := decoder{buf: msg}
	for !d.done() {
		field, wire, err := d.tag()
		if err != nil {
			return loc, lines, fmt.Errorf("pprofparse: location: %w", err)
		}
		switch field {
		case 1:
			v, err := expectVarint(&d, wire, "location.id")
			if err != nil {
				return loc, lines, err
			}
			loc.id = v
		case 3:
			v, err := expectVarint(&d, wire, "location.address")
			if err != nil {
				return loc, lines, err
			}
			loc.address = v
		case 4:
			msg, err := expectBytes(&d, wire, "location.line")
			if err != nil {
				return loc, lines, err
			}
			ln, err := parseLine(msg)
			if err != nil {
				return loc, lines, err
			}
			lines = append(lines, ln)
		default: // mapping_id, is_folded skipped
			if err := d.skip(wire); err != nil {
				return loc, lines, fmt.Errorf("pprofparse: location: %w", err)
			}
		}
	}
	loc.end = len(lines)
	return loc, lines, nil
}

func parseLine(msg []byte) (rawLine, error) {
	var ln rawLine
	d := decoder{buf: msg}
	for !d.done() {
		field, wire, err := d.tag()
		if err != nil {
			return ln, fmt.Errorf("pprofparse: line: %w", err)
		}
		switch field {
		case 1:
			v, err := expectVarint(&d, wire, "line.function_id")
			if err != nil {
				return ln, err
			}
			ln.funcID = int64Field(v)
		case 2:
			v, err := expectVarint(&d, wire, "line.line")
			if err != nil {
				return ln, err
			}
			ln.line = int64Field(v)
		default:
			if err := d.skip(wire); err != nil {
				return ln, fmt.Errorf("pprofparse: line: %w", err)
			}
		}
	}
	return ln, nil
}

func parseFunction(msg []byte) (rawFunction, error) {
	var fn rawFunction
	d := decoder{buf: msg}
	for !d.done() {
		field, wire, err := d.tag()
		if err != nil {
			return fn, fmt.Errorf("pprofparse: function: %w", err)
		}
		switch field {
		case 1:
			v, err := expectVarint(&d, wire, "function.id")
			if err != nil {
				return fn, err
			}
			fn.id = int64Field(v)
		case 2:
			v, err := expectVarint(&d, wire, "function.name")
			if err != nil {
				return fn, err
			}
			fn.nameIdx = int64Field(v)
		case 4:
			v, err := expectVarint(&d, wire, "function.filename")
			if err != nil {
				return fn, err
			}
			fn.fileIdx = int64Field(v)
		default: // system_name, start_line skipped
			if err := d.skip(wire); err != nil {
				return fn, fmt.Errorf("pprofparse: function: %w", err)
			}
		}
	}
	return fn, nil
}

// SampleTypeIndex returns the index of the named sample type, preferring
// an exact match on Type. Empty name selects the profile's default sample
// type when declared, else the last sample type — for CPU profiles that
// is {"cpu", "nanoseconds"}, the value gCPU derivation wants.
func (p *Profile) SampleTypeIndex(name string) (int, error) {
	if name == "" {
		name = p.DefaultSampleType
	}
	if name == "" {
		if len(p.SampleTypes) == 0 {
			return 0, fmt.Errorf("pprofparse: profile declares no sample types")
		}
		return len(p.SampleTypes) - 1, nil
	}
	for i, st := range p.SampleTypes {
		if st.Type == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("pprofparse: no sample type %q (have %v)", name, p.SampleTypes)
}
