// Package stacktrace models the stack-trace samples FBDetect collects
// fleet-wide and the gCPU metric derived from them (paper §2 and §4).
//
// A subroutine's gCPU is the fraction of stack-trace samples in which it
// appears anywhere on the stack; it therefore includes the cost of callees,
// exactly as the paper defines it. Frames can carry metadata set via
// SetFrameMetadata for metadata-annotated regression detection, and class
// names for the class cost domain used by the cost-shift detector.
package stacktrace

import (
	"sort"
	"strings"
)

// Frame is one stack frame: a subroutine, its enclosing class (may be
// empty), and optional metadata attached via SetFrameMetadata.
type Frame struct {
	Subroutine string
	Class      string
	Metadata   string
}

// NewFrame returns a frame for the given subroutine. Subroutines named
// "Class::method" get their class extracted automatically.
func NewFrame(subroutine string) Frame {
	f := Frame{Subroutine: subroutine}
	if i := strings.Index(subroutine, "::"); i > 0 {
		f.Class = subroutine[:i]
	}
	return f
}

// SetFrameMetadata returns a copy of f annotated with metadata, mirroring
// the paper's SetFrameMetadata() API for detecting regressions that occur
// only under certain conditions (paper §3, FrontFaaS).
func SetFrameMetadata(f Frame, metadata string) Frame {
	f.Metadata = metadata
	return f
}

// Trace is a stack trace ordered root first, leaf last.
type Trace []Frame

// ParseTrace builds a trace from "A->B->C" notation, the format used in the
// paper's Table 2. Whitespace around subroutine names is trimmed.
func ParseTrace(s string) Trace {
	parts := strings.Split(s, "->")
	t := make(Trace, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p != "" {
			t = append(t, NewFrame(p))
		}
	}
	return t
}

// String renders the trace in "A->B->C" notation.
func (t Trace) String() string {
	names := make([]string, len(t))
	for i, f := range t {
		names[i] = f.Subroutine
	}
	return strings.Join(names, "->")
}

// ContainsAny reports whether the trace includes any of the subroutines.
func (t Trace) ContainsAny(subroutines map[string]bool) bool {
	for _, f := range t {
		if subroutines[f.Subroutine] {
			return true
		}
	}
	return false
}

// CallerOf returns the direct caller of the subroutine in this trace and
// true, or "" and false if the subroutine is the root or absent.
func (t Trace) CallerOf(subroutine string) (string, bool) {
	for i, f := range t {
		if f.Subroutine == subroutine {
			if i == 0 {
				return "", false
			}
			return t[i-1].Subroutine, true
		}
	}
	return "", false
}

// Leaf returns the leaf frame, or a zero Frame for an empty trace.
func (t Trace) Leaf() Frame {
	if len(t) == 0 {
		return Frame{}
	}
	return t[len(t)-1]
}

// Sample is a weighted stack-trace observation: Weight counts how many raw
// samples shared this exact trace.
type Sample struct {
	Trace  Trace
	Weight float64
}

// SampleSet aggregates samples collected over one time bucket for one
// service and answers gCPU queries.
type SampleSet struct {
	samples []Sample
	total   float64
	// bySub maps subroutine -> indices of samples containing it.
	bySub map[string][]int
}

// NewSampleSet returns an empty sample set.
func NewSampleSet() *SampleSet {
	return &SampleSet{bySub: map[string][]int{}}
}

// Add appends a sample with the given weight.
func (ss *SampleSet) Add(t Trace, weight float64) {
	if weight <= 0 || len(t) == 0 {
		return
	}
	idx := len(ss.samples)
	ss.samples = append(ss.samples, Sample{Trace: t, Weight: weight})
	ss.total += weight
	for _, f := range t {
		// A subroutine already listed for this sample ends its list with
		// idx: recursion counts the sample once.
		l := ss.bySub[f.Subroutine]
		if n := len(l); n == 0 || l[n-1] != idx {
			ss.bySub[f.Subroutine] = append(l, idx)
		}
	}
}

// AddTraceString parses "A->B->C" and adds it with the given weight.
func (ss *SampleSet) AddTraceString(s string, weight float64) {
	ss.Add(ParseTrace(s), weight)
}

// Total returns the total sample weight.
func (ss *SampleSet) Total() float64 { return ss.total }

// Len returns the number of distinct samples.
func (ss *SampleSet) Len() int { return len(ss.samples) }

// GCPU returns the normalized CPU usage of the subroutine: the fraction of
// total sample weight whose traces contain it.
func (ss *SampleSet) GCPU(subroutine string) float64 {
	if ss.total == 0 {
		return 0
	}
	var w float64
	for _, i := range ss.bySub[subroutine] {
		w += ss.samples[i].Weight
	}
	return w / ss.total
}

// GCPUAll returns the gCPU of every subroutine observed in the set.
func (ss *SampleSet) GCPUAll() map[string]float64 {
	out := make(map[string]float64, len(ss.bySub))
	for sub := range ss.bySub {
		out[sub] = ss.GCPU(sub)
	}
	return out
}

// Subroutines returns all observed subroutine names, sorted.
func (ss *SampleSet) Subroutines() []string {
	out := make([]string, 0, len(ss.bySub))
	for sub := range ss.bySub {
		out = append(out, sub)
	}
	sort.Strings(out)
	return out
}

// Callers returns the set of distinct direct callers of the subroutine
// across all samples.
func (ss *SampleSet) Callers(subroutine string) []string {
	set := map[string]bool{}
	for _, i := range ss.bySub[subroutine] {
		if caller, ok := ss.samples[i].Trace.CallerOf(subroutine); ok {
			set[caller] = true
		}
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// ClassMembers returns the subroutines observed in the set that belong to
// the given class, sorted.
func (ss *SampleSet) ClassMembers(class string) []string {
	set := map[string]bool{}
	for _, s := range ss.samples {
		for _, f := range s.Trace {
			if f.Class == class {
				set[f.Subroutine] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for sub := range set {
		out = append(out, sub)
	}
	sort.Strings(out)
	return out
}

// ClassOf returns the class of the subroutine as observed in the samples,
// or "" if unknown.
func (ss *SampleSet) ClassOf(subroutine string) string {
	for _, i := range ss.bySub[subroutine] {
		for _, f := range ss.samples[i].Trace {
			if f.Subroutine == subroutine && f.Class != "" {
				return f.Class
			}
		}
	}
	return ""
}

// GCPUGroup returns the fraction of total weight whose traces contain any
// of the given subroutines — the cost of a cost domain (paper §5.4) or of
// a set of change-modified subroutines (paper §5.6, Table 2).
func (ss *SampleSet) GCPUGroup(subroutines map[string]bool) float64 {
	if ss.total == 0 || len(subroutines) == 0 {
		return 0
	}
	var w float64
	for _, s := range ss.samples {
		if s.Trace.ContainsAny(subroutines) {
			w += s.Weight
		}
	}
	return w / ss.total
}

// GCPUIntersection returns the fraction of total weight whose traces
// contain the subroutine AND any of the given subroutines. Root-cause
// attribution (Table 2) measures how much of subroutine B's cost flows
// through change-modified subroutines.
func (ss *SampleSet) GCPUIntersection(subroutine string, others map[string]bool) float64 {
	if ss.total == 0 {
		return 0
	}
	var w float64
	for _, i := range ss.bySub[subroutine] {
		if ss.samples[i].Trace.ContainsAny(others) {
			w += ss.samples[i].Weight
		}
	}
	return w / ss.total
}

// SharedSampleFraction returns the fraction of the sample weight used for
// either subroutine that is shared by both — the stack-trace-overlap
// feature of PairwiseDedup (paper §5.5.2).
func (ss *SampleSet) SharedSampleFraction(a, b string) float64 {
	ia, ib := ss.bySub[a], ss.bySub[b]
	if len(ia) == 0 || len(ib) == 0 {
		return 0
	}
	inB := map[int]bool{}
	for _, i := range ib {
		inB[i] = true
	}
	var shared, union float64
	for _, i := range ia {
		if inB[i] {
			shared += ss.samples[i].Weight
		}
		union += ss.samples[i].Weight
	}
	for _, i := range ib {
		if !contains(ia, i) {
			union += ss.samples[i].Weight
		}
	}
	if union == 0 {
		return 0
	}
	return shared / union
}

func contains(xs []int, v int) bool {
	// bySub index lists are sorted by construction (samples are appended).
	i := sort.SearchInts(xs, v)
	return i < len(xs) && xs[i] == v
}

// Samples returns the underlying samples; callers must not modify them.
func (ss *SampleSet) Samples() []Sample { return ss.samples }

// Merge combines other into a new sample set containing both.
func (ss *SampleSet) Merge(other *SampleSet) *SampleSet {
	out := NewSampleSet()
	for _, s := range ss.samples {
		out.Add(s.Trace, s.Weight)
	}
	for _, s := range other.samples {
		out.Add(s.Trace, s.Weight)
	}
	return out
}
