package pprofparse

import (
	"bytes"
	"compress/gzip"
	"sort"
)

// Builder assembles a Profile from symbolic stacks — the fabrication path
// tests, goldens, and demos use instead of running a real profiler. Each
// distinct function name gets one Function and one Location (one line,
// synthetic address), so Marshal output is valid, minimal profile.proto.
type Builder struct {
	sampleType ValueType
	period     int64
	timeNanos  int64
	locByFunc  map[string]uint64
	p          *Profile
}

// NewBuilder starts a profile with a single sample type, e.g.
// ("cpu", "nanoseconds").
func NewBuilder(typ, unit string) *Builder {
	return &Builder{
		sampleType: ValueType{Type: typ, Unit: unit},
		locByFunc:  map[string]uint64{},
		p: &Profile{
			SampleTypes: []ValueType{{Type: typ, Unit: unit}},
			Locations:   map[uint64]*Location{},
		},
	}
}

// SetTimeNanos stamps the profile's collection time.
func (b *Builder) SetTimeNanos(t int64) { b.p.TimeNanos = t }

// SetPeriod records the sampling period (e.g. 10ms in nanoseconds for the
// default 100 Hz CPU profiler) with the same type/unit as the sample type.
func (b *Builder) SetPeriod(period int64) {
	b.p.Period = period
	b.p.PeriodType = b.sampleType
}

// Add records one stack observation. stack is root first (the natural
// reading order; the builder reverses into pprof's leaf-first layout) and
// value is the sample weight in the profile's unit.
func (b *Builder) Add(stack []string, value int64) {
	locs := make([]uint64, 0, len(stack))
	for i := len(stack) - 1; i >= 0; i-- { // leaf first
		locs = append(locs, b.locationFor(stack[i]))
	}
	b.p.Samples = append(b.p.Samples, Sample{LocationIDs: locs, Values: []int64{value}})
}

// locationFor interns one single-line location per function name.
func (b *Builder) locationFor(fn string) uint64 {
	if id, ok := b.locByFunc[fn]; ok {
		return id
	}
	id := uint64(len(b.locByFunc) + 1)
	b.locByFunc[fn] = id
	b.p.Locations[id] = &Location{
		ID:      id,
		Address: 0x1000 + id*0x10, // synthetic, stable
		Lines:   []Line{{Function: fn, File: fn + ".go", Line: int64(id)}},
	}
	return id
}

// Profile returns the built profile (shared, not copied).
func (b *Builder) Profile() *Profile { return b.p }

// Marshal serializes the profile as uncompressed profile.proto bytes.
// Output is deterministic: the string table and tables derived from maps
// are emitted in sorted order, so equal profiles marshal to equal bytes —
// what committed golden profiles require.
func (p *Profile) Marshal() []byte {
	// String table: index 0 is always "", then every referenced string in
	// sorted order.
	strIdx := map[string]uint64{"": 0}
	var strs []string
	intern := func(s string) {
		if _, ok := strIdx[s]; !ok {
			strIdx[s] = 1 // placeholder; reassigned after sort
			strs = append(strs, s)
		}
	}
	for _, st := range p.SampleTypes {
		intern(st.Type)
		intern(st.Unit)
	}
	intern(p.PeriodType.Type)
	intern(p.PeriodType.Unit)
	intern(p.DefaultSampleType)

	locIDs := make([]uint64, 0, len(p.Locations))
	for id := range p.Locations {
		locIDs = append(locIDs, id)
	}
	sort.Slice(locIDs, func(i, j int) bool { return locIDs[i] < locIDs[j] })

	// Function table: one entry per (name, file), ids assigned in sorted
	// location order for determinism.
	type funcKey struct{ name, file string }
	funcIDs := map[funcKey]uint64{}
	type funcEntry struct {
		id   uint64
		name string
		file string
	}
	var funcs []funcEntry
	for _, id := range locIDs {
		for _, ln := range p.Locations[id].Lines {
			k := funcKey{ln.Function, ln.File}
			if _, ok := funcIDs[k]; !ok {
				fid := uint64(len(funcs) + 1)
				funcIDs[k] = fid
				funcs = append(funcs, funcEntry{id: fid, name: ln.Function, file: ln.File})
				intern(ln.Function)
				intern(ln.File)
			}
		}
	}
	sort.Strings(strs)
	for i, s := range strs {
		strIdx[s] = uint64(i + 1)
	}

	var e encoder
	// A value type whose type and unit are both "" encodes as an empty
	// message. A sample type emits it anyway (emitEmpty): dropping it would
	// leave every sample one value more than the re-parse declares. An
	// empty period type is left out whole, by the check before its call.
	vt := func(field int, t ValueType, emitEmpty bool) {
		var m encoder
		m.uint64Fld(1, strIdx[t.Type])
		m.uint64Fld(2, strIdx[t.Unit])
		e.bytesFld(field, m.buf, emitEmpty)
	}
	for _, st := range p.SampleTypes {
		vt(1, st, true)
	}
	for _, s := range p.Samples {
		var m encoder
		m.packedUint64Fld(1, s.LocationIDs)
		m.packedInt64Fld(2, s.Values)
		e.bytesFld(2, m.buf, true)
	}
	for _, id := range locIDs {
		loc := p.Locations[id]
		var m encoder
		m.uint64Fld(1, loc.ID)
		m.uint64Fld(3, loc.Address)
		for _, ln := range loc.Lines {
			var lm encoder
			lm.uint64Fld(1, funcIDs[funcKey{ln.Function, ln.File}])
			lm.int64Fld(2, ln.Line)
			m.bytesFld(4, lm.buf, true)
		}
		e.bytesFld(4, m.buf, true)
	}
	for _, fn := range funcs {
		var m encoder
		m.uint64Fld(1, fn.id)
		m.uint64Fld(2, strIdx[fn.name])
		m.uint64Fld(4, strIdx[fn.file])
		e.bytesFld(5, m.buf, true)
	}
	// String table, index order. Index 0 (the empty string) must occupy
	// its slot even though its payload is empty.
	e.bytesFld(6, nil, true)
	for _, s := range strs {
		e.bytesFld(6, []byte(s), true)
	}
	e.int64Fld(9, p.TimeNanos)
	e.int64Fld(10, p.DurationNanos)
	if p.PeriodType != (ValueType{}) {
		vt(11, p.PeriodType, false)
	}
	e.int64Fld(12, p.Period)
	if p.DefaultSampleType != "" {
		e.uint64Fld(14, strIdx[p.DefaultSampleType])
	}
	return e.buf
}

// MarshalGzip serializes the profile in the gzipped form runtime/pprof
// writes. The gzip stream carries no timestamp, so output stays
// deterministic.
func (p *Profile) MarshalGzip() []byte {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(p.Marshal())
	zw.Close()
	return buf.Bytes()
}
