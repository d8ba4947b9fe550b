package stacktrace

import (
	"math"
	"testing"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestParseTraceAndString(t *testing.T) {
	tr := ParseTrace("A->B->C")
	if len(tr) != 3 || tr[0].Subroutine != "A" || tr[2].Subroutine != "C" {
		t.Fatalf("ParseTrace = %v", tr)
	}
	if tr.String() != "A->B->C" {
		t.Errorf("String = %q", tr.String())
	}
	if got := ParseTrace(" A -> B "); got.String() != "A->B" {
		t.Errorf("whitespace: %q", got.String())
	}
	if got := ParseTrace(""); len(got) != 0 {
		t.Errorf("empty: %v", got)
	}
}

func TestNewFrameClassExtraction(t *testing.T) {
	f := NewFrame("Renderer::draw")
	if f.Class != "Renderer" || f.Subroutine != "Renderer::draw" {
		t.Errorf("frame = %+v", f)
	}
	if NewFrame("plain").Class != "" {
		t.Error("no class expected")
	}
}

func TestSetFrameMetadata(t *testing.T) {
	f := NewFrame("foo")
	g := SetFrameMetadata(f, "user_category=vip")
	if g.Metadata != "user_category=vip" {
		t.Errorf("metadata = %q", g.Metadata)
	}
	if f.Metadata != "" {
		t.Error("SetFrameMetadata must not mutate the original")
	}
}

func TestTraceQueries(t *testing.T) {
	tr := ParseTrace("A->B->C")
	if caller, ok := tr.CallerOf("B"); !ok || caller != "A" {
		t.Errorf("CallerOf(B) = %q, %v", caller, ok)
	}
	if _, ok := tr.CallerOf("A"); ok {
		t.Error("root has no caller")
	}
	if _, ok := tr.CallerOf("Z"); ok {
		t.Error("absent subroutine has no caller")
	}
	if tr.Leaf().Subroutine != "C" {
		t.Errorf("Leaf = %v", tr.Leaf())
	}
	if (Trace{}).Leaf().Subroutine != "" {
		t.Error("empty trace leaf")
	}
	if !tr.ContainsAny(map[string]bool{"C": true, "Q": true}) {
		t.Error("ContainsAny wrong")
	}
}

// table2Before/After reproduce the paper's Table 2 sample sets.
func table2Before() *SampleSet {
	ss := NewSampleSet()
	ss.AddTraceString("A->B->C", 0.01)
	ss.AddTraceString("B->E->F", 0.02)
	ss.AddTraceString("D->B->C", 0.02)
	ss.AddTraceString("B->E->D", 0.04)
	ss.AddTraceString("Other", 0.91)
	return ss
}

func table2After() *SampleSet {
	ss := NewSampleSet()
	ss.AddTraceString("A->B->C", 0.02)
	ss.AddTraceString("B->E->F", 0.03)
	ss.AddTraceString("D->B->C", 0.02)
	ss.AddTraceString("B->E->D", 0.06)
	ss.AddTraceString("G->B->D", 0.01)
	ss.AddTraceString("Other", 0.86)
	return ss
}

func TestGCPUTable2(t *testing.T) {
	before, after := table2Before(), table2After()
	if got := before.GCPU("B"); !almostEqual(got, 0.09, 1e-9) {
		t.Errorf("gCPU(B) before = %v, want 0.09", got)
	}
	if got := after.GCPU("B"); !almostEqual(got, 0.14, 1e-9) {
		t.Errorf("gCPU(B) after = %v, want 0.14", got)
	}
	// Change modifies A and E; attribution L/R should be 0.04/0.05 = 80%.
	changed := map[string]bool{"A": true, "E": true}
	lBefore := before.GCPUIntersection("B", changed)
	lAfter := after.GCPUIntersection("B", changed)
	if !almostEqual(lBefore, 0.07, 1e-9) || !almostEqual(lAfter, 0.11, 1e-9) {
		t.Errorf("L before/after = %v/%v, want 0.07/0.11", lBefore, lAfter)
	}
	r := after.GCPU("B") - before.GCPU("B")
	l := lAfter - lBefore
	if !almostEqual(l/r, 0.8, 1e-9) {
		t.Errorf("attribution = %v, want 0.8", l/r)
	}
}

func TestGCPUEmptySet(t *testing.T) {
	ss := NewSampleSet()
	if ss.GCPU("X") != 0 || ss.Total() != 0 || ss.Len() != 0 {
		t.Error("empty set should be all zeros")
	}
	if ss.GCPUGroup(map[string]bool{"X": true}) != 0 {
		t.Error("empty group gcpu")
	}
}

func TestAddIgnoresInvalid(t *testing.T) {
	ss := NewSampleSet()
	ss.Add(ParseTrace("A"), 0)  // zero weight
	ss.Add(Trace{}, 1)          // empty trace
	ss.Add(ParseTrace("A"), -1) // negative weight
	if ss.Len() != 0 {
		t.Errorf("invalid adds accepted: %d", ss.Len())
	}
}

func TestRecursiveTraceCountsOnce(t *testing.T) {
	ss := NewSampleSet()
	ss.AddTraceString("A->B->A", 1) // recursion: A appears twice
	ss.AddTraceString("C", 1)
	if got := ss.GCPU("A"); !almostEqual(got, 0.5, 1e-9) {
		t.Errorf("recursive gCPU = %v, want 0.5 (count sample once)", got)
	}
}

func TestGCPUAllAndSubroutines(t *testing.T) {
	ss := table2Before()
	all := ss.GCPUAll()
	if !almostEqual(all["B"], 0.09, 1e-9) {
		t.Errorf("GCPUAll[B] = %v", all["B"])
	}
	subs := ss.Subroutines()
	if len(subs) != 7 { // A B C D E F Other
		t.Errorf("Subroutines = %v", subs)
	}
	// sorted
	for i := 1; i < len(subs); i++ {
		if subs[i-1] >= subs[i] {
			t.Errorf("not sorted: %v", subs)
		}
	}
}

func TestCallers(t *testing.T) {
	ss := table2After()
	callers := ss.Callers("B")
	// B is called by A, D, G, and is a root in B->E->F / B->E->D.
	want := []string{"A", "D", "G"}
	if len(callers) != len(want) {
		t.Fatalf("Callers(B) = %v", callers)
	}
	for i := range want {
		if callers[i] != want[i] {
			t.Errorf("Callers(B) = %v, want %v", callers, want)
		}
	}
}

func TestClassDomain(t *testing.T) {
	ss := NewSampleSet()
	ss.Add(Trace{NewFrame("main"), NewFrame("Cache::get")}, 3)
	ss.Add(Trace{NewFrame("main"), NewFrame("Cache::put")}, 1)
	ss.Add(Trace{NewFrame("main"), NewFrame("other")}, 6)
	if got := ss.ClassOf("Cache::get"); got != "Cache" {
		t.Errorf("ClassOf = %q", got)
	}
	if got := ss.ClassOf("other"); got != "" {
		t.Errorf("ClassOf(other) = %q", got)
	}
	members := ss.ClassMembers("Cache")
	if len(members) != 2 || members[0] != "Cache::get" || members[1] != "Cache::put" {
		t.Errorf("ClassMembers = %v", members)
	}
	group := map[string]bool{"Cache::get": true, "Cache::put": true}
	if got := ss.GCPUGroup(group); !almostEqual(got, 0.4, 1e-9) {
		t.Errorf("class domain gCPU = %v, want 0.4", got)
	}
}

func TestSharedSampleFraction(t *testing.T) {
	ss := NewSampleSet()
	ss.AddTraceString("A->B", 1)
	ss.AddTraceString("A->C", 1)
	ss.AddTraceString("D", 2)
	// A and B share 1 of the 2 units used by either (A:2 units, B:1; union 2, shared 1).
	if got := ss.SharedSampleFraction("A", "B"); !almostEqual(got, 0.5, 1e-9) {
		t.Errorf("shared(A,B) = %v, want 0.5", got)
	}
	if got := ss.SharedSampleFraction("A", "D"); got != 0 {
		t.Errorf("disjoint shared = %v", got)
	}
	if got := ss.SharedSampleFraction("A", "Z"); got != 0 {
		t.Errorf("unknown shared = %v", got)
	}
	// Identical usage -> 1.
	if got := ss.SharedSampleFraction("A", "A"); !almostEqual(got, 1, 1e-9) {
		t.Errorf("self shared = %v", got)
	}
}

func TestMerge(t *testing.T) {
	a := NewSampleSet()
	a.AddTraceString("X->Y", 1)
	b := NewSampleSet()
	b.AddTraceString("X->Z", 1)
	m := a.Merge(b)
	if m.Total() != 2 || !almostEqual(m.GCPU("X"), 1, 1e-9) {
		t.Errorf("merge: total=%v gCPU(X)=%v", m.Total(), m.GCPU("X"))
	}
	if !almostEqual(m.GCPU("Y"), 0.5, 1e-9) {
		t.Errorf("merge gCPU(Y) = %v", m.GCPU("Y"))
	}
	// originals untouched
	if a.Total() != 1 || b.Total() != 1 {
		t.Error("merge mutated inputs")
	}
}
