package pprofparse

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"fbdetect/internal/stacktrace"
)

// ConvertOptions tunes Profile→SampleSet conversion. The zero value picks
// the profile's default (or last) sample type. Frames are always
// normalized (NormalizeFrame).
type ConvertOptions struct {
	// SampleType selects which sample value to weight stacks by, matched
	// against the profile's sample-type names (e.g. "cpu", "samples").
	// Empty picks the profile's declared default, falling back to the last
	// type — for CPU profiles that is cpu/nanoseconds.
	SampleType string

	// MaxDepth keeps only the MaxDepth frames nearest the root (0 =
	// unlimited). FBDetect's gCPU only asks "does the subroutine appear
	// anywhere on the stack", so truncation trades leaf resolution for
	// memory on pathological stacks.
	MaxDepth int
}

// SampleSet converts the profile into FBDetect's sample model: each pprof
// sample becomes one weighted stack trace, root first, with inlined
// frames expanded in call order and address-only frames (no symbols)
// dropped. Samples with non-positive weight are skipped, matching how
// folded input treats counts. Frames are resolved once per location
// (stacks) and the traces carved from shared slabs.
func (p *Profile) SampleSet(opts ConvertOptions) (*stacktrace.SampleSet, error) {
	idx, err := p.SampleTypeIndex(opts.SampleType)
	if err != nil {
		return nil, err
	}
	st := newStacks(p)
	ss := stacktrace.NewSampleSet()
	var slab []stacktrace.Frame
	err = st.walk(idx, opts.MaxDepth, func(w float64, trace []int32) {
		if cap(slab)-len(slab) < len(trace) {
			slab = make([]stacktrace.Frame, 0, max(1024, len(trace)))
		}
		from := len(slab)
		for _, id := range trace {
			slab = append(slab, st.frames[id])
		}
		ss.Add(slab[from:len(slab):len(slab)], w)
	})
	if err != nil {
		return nil, err
	}
	return ss, nil
}

// GCPU is one subroutine's gCPU in a folded profile.
type GCPU struct {
	Subroutine string
	Value      float64
}

// Fold folds the profile straight into per-subroutine gCPU, without
// building a SampleSet: the subroutines and values are exactly
// SampleSet(opts).GCPUAll()'s, bit for bit, and total is its Total. Each
// sample adds its weight once to every subroutine on its stack, in
// sample order, which is the order GCPU sums in. Subroutines come in the
// order the walk first resolved them.
func (p *Profile) Fold(opts ConvertOptions) (gcpu []GCPU, total float64, err error) {
	idx, err := p.SampleTypeIndex(opts.SampleType)
	if err != nil {
		return nil, 0, err
	}
	st := newStacks(p)
	var (
		weight = make([]float64, 0, cap(st.frames)) // by subroutine id
		stamp  = make([]int32, 0, cap(st.frames))   // by subroutine id: the last sample (from 1) that counted it
		n      int32
	)
	err = st.walk(idx, opts.MaxDepth, func(w float64, trace []int32) {
		for len(weight) < len(st.frames) {
			weight = append(weight, 0)
			stamp = append(stamp, 0)
		}
		n++
		total += w
		for _, id := range trace {
			if stamp[id] != n {
				stamp[id] = n
				weight[id] += w
			}
		}
	})
	if err != nil {
		return nil, 0, err
	}
	for id, last := range stamp {
		if last != 0 {
			gcpu = append(gcpu, GCPU{Subroutine: st.frames[id].Subroutine, Value: weight[id] / total})
		}
	}
	return gcpu, total, nil
}

// stacks is the per-location memo every conversion of a profile reads,
// and the one place that decides how a location resolves to frames: its
// lines reversed (pprof lists the innermost inlined call first), empty
// names dropped, each name normalized (NormalizeFrame) and interned by
// subroutine. Address-only locations resolve to nothing. A location is
// resolved the first time a sample reaches it, then read back as a run
// of subroutine ids. The interned table plus each sample's LocationIDs
// is the whole profile as stacks of ids.
type stacks struct {
	p      *Profile
	frames []stacktrace.Frame // interned subroutines: id → frame
	ids    map[string]int32   // subroutine → id
	runs   []int32            // every resolved location's ids, root first
	dense  []run              // by location ID, when the IDs are small
	sparse map[uint64]*run    // by location ID, otherwise
}

// run is one location's ids: runs[start:end] once resolved.
type run struct {
	start, end int
	resolved   bool
}

func newStacks(p *Profile) *stacks {
	// One line per location is the common case: size the table for it.
	st := &stacks{
		p:      p,
		frames: make([]stacktrace.Frame, 0, len(p.Locations)),
		ids:    make(map[string]int32, len(p.Locations)),
	}
	var maxID uint64
	for id := range p.Locations {
		maxID = max(maxID, id)
	}
	// runtime/pprof numbers locations 1..n; a slice indexed by ID then
	// replaces a map lookup per frame.
	if maxID <= 2*uint64(len(p.Locations))+64 {
		st.dense = make([]run, maxID+1)
	} else {
		st.sparse = make(map[uint64]*run, len(p.Locations))
	}
	return st
}

// walk calls visit, in sample order, with each sample's weight and its
// stack as subroutine ids, root first and cut to the maxDepth frames
// nearest the root (0 = all). Samples with weight ≤ 0 or no frame left
// are skipped. trace is reused across calls.
func (st *stacks) walk(typeIdx, maxDepth int, visit func(w float64, trace []int32)) error {
	var trace []int32
	for _, s := range st.p.Samples {
		if typeIdx >= len(s.Values) {
			return fmt.Errorf("pprofparse: sample with %d values, want index %d", len(s.Values), typeIdx)
		}
		w := float64(s.Values[typeIdx])
		if w <= 0 {
			continue
		}
		trace = trace[:0]
		for i := len(s.LocationIDs) - 1; i >= 0; i-- {
			trace = append(trace, st.location(s.LocationIDs[i])...)
		}
		if maxDepth > 0 && len(trace) > maxDepth {
			trace = trace[:maxDepth]
		}
		if len(trace) > 0 {
			visit(w, trace)
		}
	}
	return nil
}

// location returns the subroutine ids of location id, root first,
// resolving it on first use. An unknown ID resolves to nothing.
func (st *stacks) location(id uint64) []int32 {
	var r *run
	switch {
	case st.sparse != nil:
		if r = st.sparse[id]; r == nil {
			r = new(run)
			st.sparse[id] = r
		}
	case id < uint64(len(st.dense)):
		r = &st.dense[id]
	default:
		return nil
	}
	if !r.resolved {
		r.resolved, r.start = true, len(st.runs)
		if loc := st.p.Locations[id]; loc != nil {
			for j := len(loc.Lines) - 1; j >= 0; j-- {
				if name := loc.Lines[j].Function; name != "" {
					st.runs = append(st.runs, st.intern(NormalizeFrame(name)))
				}
			}
		}
		r.end = len(st.runs)
	}
	return st.runs[r.start:r.end]
}

// intern returns the id of f's subroutine, assigning the next one on
// first sight. A frame is a function of its subroutine name, so the
// first frame seen stands for all.
func (st *stacks) intern(f stacktrace.Frame) int32 {
	id, ok := st.ids[f.Subroutine]
	if !ok {
		id = int32(len(st.frames))
		st.frames = append(st.frames, f)
		st.ids[f.Subroutine] = id
	}
	return id
}

// NormalizeFrame maps a profiler symbol name onto FBDetect's subroutine
// model:
//
//   - Go symbols drop their import-path prefix, keeping the package's
//     last element: "github.com/x/repo/pkg.(*T).Method" → subroutine
//     "pkg.(*T).Method" with class "pkg.T". Plain receivers ("pkg.T.Method")
//     and closures ("pkg.Run.func1", class "pkg.Run") resolve the same way.
//   - C++-style "Class::method" names keep stacktrace.NewFrame's native
//     class extraction.
//   - Anything else passes through unchanged.
//
// The class is what the cost-shift detector's class domain groups by, so
// methods of one receiver land in one domain exactly as "Class::method"
// names do (paper §5.4).
func NormalizeFrame(name string) stacktrace.Frame {
	if strings.Contains(name, "::") {
		return stacktrace.NewFrame(name)
	}
	short := stripImportPath(name)
	f := stacktrace.Frame{Subroutine: short}
	if class, ok := goReceiverClass(short); ok {
		f.Class = class
	}
	return f
}

// stripImportPath removes the directory part of a Go symbol's package
// path. Generic instantiations may contain '/' inside brackets
// ("pkg.F[go.shape/...]"), so only the prefix before the first bracket is
// searched for the final separator.
func stripImportPath(name string) string {
	prefix := name
	if i := strings.IndexByte(name, '['); i >= 0 {
		prefix = name[:i]
	}
	if i := strings.LastIndexByte(prefix, '/'); i >= 0 {
		return name[i+1:]
	}
	return name
}

// goReceiverClass extracts "pkg.Type" from a path-stripped Go symbol like
// "pkg.(*Type).Method", "pkg.Type.Method", or "pkg.Run.func1" (closures
// group under their enclosing function). Plain functions ("pkg.fn",
// "main.main") have no class.
func goReceiverClass(short string) (string, bool) {
	dot := strings.IndexByte(short, '.')
	if dot <= 0 || dot+1 >= len(short) {
		return "", false
	}
	pkg, rest := short[:dot], short[dot+1:]
	if strings.HasPrefix(rest, "(*") {
		if end := strings.Index(rest, ")"); end > 2 {
			return pkg + "." + rest[2:end], true
		}
		return "", false
	}
	// "Recv.Method": only treat the middle component as a receiver (or
	// enclosing function) when it is exported — "pkg.run.func1" style
	// symbols for unexported receivers are rare and ambiguous. Dots
	// inside generic brackets ("Map[go.shape.int]") are not separators.
	search := rest
	if i := strings.IndexByte(rest, '['); i >= 0 {
		search = rest[:i]
	}
	next := strings.IndexByte(search, '.')
	if next <= 0 {
		return "", false
	}
	r, _ := utf8.DecodeRuneInString(rest)
	if !unicode.IsUpper(r) {
		return "", false
	}
	return pkg + "." + rest[:next], true
}
