package popshift

import (
	"math"
	"testing"
)

func TestSuffixRoundTrip(t *testing.T) {
	cases := []Stratum{
		{Gen: "skylake", Region: "west", Class: "batch"},
		{Gen: "icelake"},
		{Region: "east"},
		{Class: "web"},
		{Gen: "g2", Class: "rt"},
		{Region: "eu-1", Class: "bulk"},
	}
	for _, s := range cases {
		entity := TagEntity("frontend", s)
		base, got, ok := ParseEntity(entity)
		if !ok {
			t.Fatalf("ParseEntity(%q): no tag parsed", entity)
		}
		if base != "frontend" || got != s {
			t.Fatalf("ParseEntity(%q) = %q, %+v; want frontend, %+v", entity, base, got, s)
		}
	}
}

func TestTagEntityZero(t *testing.T) {
	if got := TagEntity("frontend", Stratum{}); got != "frontend" {
		t.Fatalf("zero stratum must not alter entity; got %q", got)
	}
}

func TestParseEntityUntagged(t *testing.T) {
	for _, e := range []string{
		"frontend",
		"a/b/c",              // slashes fine in bases
		"user@host",          // '@' but not a valid suffix
		"svc@",               // empty suffix
		"svc@gen=",           // empty value
		"svc@foo=bar",        // unknown key
		"svc@gen=a;gen=b",    // repeated key
		"svc@region=a;gen=b", // out of canonical order
		"svc@gen=a=b",        // '=' in value
		"svc@gen=a/b",        // '/' in value
	} {
		base, s, ok := ParseEntity(e)
		if ok || base != e || !s.IsZero() {
			t.Errorf("ParseEntity(%q) = %q, %+v, %v; want untagged passthrough", e, base, s, ok)
		}
	}
}

func TestParseEntityLastAt(t *testing.T) {
	// The tag binds to the LAST '@'; earlier ones belong to the base.
	base, s, ok := ParseEntity("user@host@gen=x")
	if !ok || base != "user@host" || s.Gen != "x" {
		t.Fatalf("got %q, %+v, %v", base, s, ok)
	}
}

func TestCanonicalEntity(t *testing.T) {
	cases := map[string]string{
		"svc@class=b;gen=a":          "svc@gen=a;class=b", // reorder
		"svc@region=r;gen=g;class=c": "svc@gen=g;region=r;class=c",
		"svc@gen=a;class=b":          "svc@gen=a;class=b", // already canonical
		"svc@gen=a;gen=b":            "svc@gen=a;gen=b",   // repeat: untouched
		"plain":                      "plain",
		"svc@":                       "svc@",
	}
	for in, want := range cases {
		if got := CanonicalEntity(in); got != want {
			t.Errorf("CanonicalEntity(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWeightSeriesEntity(t *testing.T) {
	s := Stratum{Gen: "g1", Region: "w"}
	if got := TagEntity("", s); got != "@gen=g1;region=w" {
		t.Fatalf("weight entity = %q", got)
	}
	base, parsed, ok := ParseEntity(TagEntity("", s))
	if !ok || base != "" || parsed != s {
		t.Fatalf("weight entity did not round-trip: %q %+v %v", base, parsed, ok)
	}
}

func TestReweighPureComposition(t *testing.T) {
	// Mix moves 70/30 -> 30/70 between a cheap and an expensive
	// stratum; per-stratum behavior identical. All delta must land in
	// Composition, none in Behavior.
	stats := []StratumStat{
		{Stratum: Stratum{Gen: "old"}, PreWeight: 0.7, PostWeight: 0.3, PreMean: 0.10, PostMean: 0.10},
		{Stratum: Stratum{Gen: "new"}, PreWeight: 0.3, PostWeight: 0.7, PreMean: 0.20, PostMean: 0.20},
	}
	d := Reweigh(stats)
	if d.BehaviorPre != 0 || d.BehaviorPost != 0 || d.Interaction != 0 {
		t.Fatalf("pure composition leaked into behavior: %+v", d)
	}
	if math.Abs(d.Observed-0.04) > 1e-12 || math.Abs(d.Composition-0.04) > 1e-12 {
		t.Fatalf("observed/composition wrong: %+v", d)
	}
	if math.Abs(d.MixChange-0.4) > 1e-12 {
		t.Fatalf("mix change = %v, want 0.4", d.MixChange)
	}
}

func TestReweighUniformStep(t *testing.T) {
	// Every stratum steps by the same delta; BehaviorPre must equal the
	// step exactly regardless of how the mix moved.
	const step = 0.05
	stats := []StratumStat{
		{Stratum: Stratum{Gen: "old"}, PreWeight: 0.9, PostWeight: 0.2, PreMean: 0.10, PostMean: 0.10 + step},
		{Stratum: Stratum{Gen: "new"}, PreWeight: 0.1, PostWeight: 0.8, PreMean: 0.30, PostMean: 0.30 + step},
	}
	d := Reweigh(stats)
	if math.Abs(d.BehaviorPre-step) > 1e-12 || math.Abs(d.BehaviorPost-step) > 1e-12 {
		t.Fatalf("uniform step not recovered: %+v", d)
	}
	if math.Abs(d.Interaction) > 1e-12 {
		t.Fatalf("uniform step has interaction: %+v", d)
	}
}

func TestReweighNormalizesWeights(t *testing.T) {
	// Raw server counts instead of fractions.
	stats := []StratumStat{
		{Stratum: Stratum{Gen: "a"}, PreWeight: 700, PostWeight: 300, PreMean: 1, PostMean: 1},
		{Stratum: Stratum{Gen: "b"}, PreWeight: 300, PostWeight: 700, PreMean: 2, PostMean: 2},
	}
	d := Reweigh(stats)
	if math.Abs(d.Observed-0.4) > 1e-12 {
		t.Fatalf("unnormalized weights mishandled: %+v", d)
	}
}

func TestReweighAppearingStratum(t *testing.T) {
	// A stratum present only post-change (new generation spun up).
	stats := []StratumStat{
		{Stratum: Stratum{Gen: "a"}, PreWeight: 1, PostWeight: 0.5, PreMean: 1, PostMean: 1},
		{Stratum: Stratum{Gen: "b"}, PostWeight: 0.5, PreMean: 2, PostMean: 2},
	}
	d := Reweigh(stats)
	if d.Strata != 2 {
		t.Fatalf("appearing stratum dropped: %+v", d)
	}
	if math.Abs(d.MixChange-0.5) > 1e-12 {
		t.Fatalf("mix change = %v, want 0.5", d.MixChange)
	}
	if d.BehaviorPre != 0 {
		t.Fatalf("behavior leak on appearance: %+v", d)
	}
}

func TestDiagnoseVerdicts(t *testing.T) {
	pure := []StratumStat{
		{Stratum: Stratum{Gen: "a"}, PreWeight: 0.7, PostWeight: 0.3, PreMean: 0.10, PostMean: 0.10, PreVar: 1e-6, PostVar: 1e-6, PreN: 100, PostN: 100},
		{Stratum: Stratum{Gen: "b"}, PreWeight: 0.3, PostWeight: 0.7, PreMean: 0.20, PostMean: 0.20, PreVar: 1e-6, PostVar: 1e-6, PreN: 100, PostN: 100},
	}
	if v := Diagnose(pure, 0.01, Config{}); !v.IsShift {
		t.Fatalf("pure composition not diagnosed as shift: %+v", v)
	}

	step := []StratumStat{
		{Stratum: Stratum{Gen: "a"}, PreWeight: 0.7, PostWeight: 0.3, PreMean: 0.10, PostMean: 0.15, PreVar: 1e-6, PostVar: 1e-6, PreN: 100, PostN: 100},
		{Stratum: Stratum{Gen: "b"}, PreWeight: 0.3, PostWeight: 0.7, PreMean: 0.20, PostMean: 0.25, PreVar: 1e-6, PostVar: 1e-6, PreN: 100, PostN: 100},
	}
	if v := Diagnose(step, 0.01, Config{}); v.IsShift {
		t.Fatalf("uniform step wrongly suppressed: %+v", v)
	}

	// One stratum: must abstain.
	single := pure[:1]
	if v := Diagnose(single, 0.01, Config{}); v.IsShift {
		t.Fatalf("single stratum wrongly diagnosed: %+v", v)
	}

	// Mix did not move: must abstain even with identical behavior.
	still := []StratumStat{
		{Stratum: Stratum{Gen: "a"}, PreWeight: 0.5, PostWeight: 0.5, PreMean: 0.10, PostMean: 0.12},
		{Stratum: Stratum{Gen: "b"}, PreWeight: 0.5, PostWeight: 0.5, PreMean: 0.20, PostMean: 0.22},
	}
	if v := Diagnose(still, 0.5, Config{}); v.IsShift {
		t.Fatalf("static mix wrongly diagnosed as shift: %+v", v)
	}
}

func TestDiagnoseBiasTest(t *testing.T) {
	// Behavior term below the metric threshold but many standard
	// errors from zero: the bias test must veto the shift verdict.
	stats := []StratumStat{
		{Stratum: Stratum{Gen: "a"}, PreWeight: 0.7, PostWeight: 0.3, PreMean: 0.100, PostMean: 0.104, PreVar: 1e-10, PostVar: 1e-10, PreN: 1000, PostN: 1000},
		{Stratum: Stratum{Gen: "b"}, PreWeight: 0.3, PostWeight: 0.7, PreMean: 0.200, PostMean: 0.204, PreVar: 1e-10, PostVar: 1e-10, PreN: 1000, PostN: 1000},
	}
	v := Diagnose(stats, 0.05, Config{})
	if v.IsShift {
		t.Fatalf("bias test failed to veto: %+v", v)
	}
	if v.Reason != "behavior term significant under bias test" {
		t.Fatalf("unexpected reason: %q", v.Reason)
	}
}

func TestSortStrata(t *testing.T) {
	strata := []Stratum{{Gen: "b"}, {Gen: "a", Region: "z"}, {Gen: "a", Region: "a"}}
	SortStrata(strata)
	if strata[0].Gen != "a" || strata[0].Region != "a" || strata[2].Gen != "b" {
		t.Fatalf("sort order wrong: %+v", strata)
	}
}
