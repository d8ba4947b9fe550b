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
// folded input treats counts.
func (p *Profile) SampleSet(opts ConvertOptions) (*stacktrace.SampleSet, error) {
	idx, err := p.SampleTypeIndex(opts.SampleType)
	if err != nil {
		return nil, err
	}
	ss := stacktrace.NewSampleSet()
	for _, s := range p.Samples {
		if idx >= len(s.Values) {
			return nil, fmt.Errorf("pprofparse: sample with %d values, want index %d", len(s.Values), idx)
		}
		w := float64(s.Values[idx])
		if w <= 0 {
			continue
		}
		tr := p.trace(s.LocationIDs, opts)
		if len(tr) == 0 {
			continue
		}
		ss.Add(tr, w)
	}
	return ss, nil
}

// trace expands one sample's locations into a root-first Trace. pprof
// lists locations leaf first, and within a location Lines[0] is the
// innermost inlined call — so both levels reverse.
func (p *Profile) trace(locIDs []uint64, opts ConvertOptions) stacktrace.Trace {
	tr := make(stacktrace.Trace, 0, len(locIDs))
	for i := len(locIDs) - 1; i >= 0; i-- {
		loc := p.Locations[locIDs[i]]
		if loc == nil || len(loc.Lines) == 0 {
			continue // address-only frame: stripped
		}
		for j := len(loc.Lines) - 1; j >= 0; j-- {
			name := loc.Lines[j].Function
			if name == "" {
				continue
			}
			tr = append(tr, NormalizeFrame(name))
		}
	}
	if opts.MaxDepth > 0 && len(tr) > opts.MaxDepth {
		tr = tr[:opts.MaxDepth]
	}
	return tr
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
