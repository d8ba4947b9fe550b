package fleet

import (
	"math"
	"strings"
	"testing"
	"time"

	"fbdetect/internal/popshift"
	"fbdetect/internal/tsdb"
)

var popT0 = time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)

func popTestConfig(pop *Population) Config {
	tree, err := NewTree(&Node{Name: "root", SelfWeight: 1, Children: []*Node{
		{Name: "work", SelfWeight: 50},
	}})
	if err != nil {
		panic(err)
	}
	return Config{
		Name:           "popsvc",
		Servers:        1000,
		Step:           time.Minute,
		SamplesPerStep: 1e6,
		BaseCPU:        0.5,
		CPUNoise:       0.05,
		Tree:           tree,
		Seed:           7,
		Population:     pop,
	}
}

func twoStrata() *Population {
	return &Population{
		Strata: []Stratum{
			{Generation: "old", Fraction: 0.8, CostFactor: 1},
			{Generation: "new", Fraction: 0.2, CostFactor: 0.7},
		},
	}
}

// TestGenerationFractionBounds is the regression test for the
// validation fix: per-generation fractions outside [0,1] must fail
// loudly even when the set sums to 1.
func TestGenerationFractionBounds(t *testing.T) {
	cases := []struct {
		name string
		gens []Generation
		want string
	}{
		{"negative offsets sum to one", []Generation{
			{Name: "a", Fraction: 1.5, SpeedFactor: 1},
			{Name: "b", Fraction: -0.5, SpeedFactor: 1},
		}, "out of [0,1]"},
		{"single negative", []Generation{
			{Name: "a", Fraction: -0.2, SpeedFactor: 1},
			{Name: "b", Fraction: 1.2, SpeedFactor: 1},
		}, "out of [0,1]"},
		{"nan fraction", []Generation{
			{Name: "a", Fraction: math.NaN(), SpeedFactor: 1},
			{Name: "b", Fraction: 1, SpeedFactor: 1},
		}, "out of [0,1]"},
		{"sum below one still caught", []Generation{
			{Name: "a", Fraction: 0.5, SpeedFactor: 1},
			{Name: "b", Fraction: 0.3, SpeedFactor: 1},
		}, "sum to"},
	}
	for _, tc := range cases {
		cfg := popTestConfig(nil)
		cfg.Generations = tc.gens
		_, err := NewService(cfg)
		if err == nil {
			t.Errorf("%s: invalid generations accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// The valid case must still construct.
	cfg := popTestConfig(nil)
	cfg.Generations = []Generation{
		{Name: "a", Fraction: 0.6, SpeedFactor: 1},
		{Name: "b", Fraction: 0.4, SpeedFactor: 1.2},
	}
	if _, err := NewService(cfg); err != nil {
		t.Errorf("valid generations rejected: %v", err)
	}
}

func TestPopulationValidation(t *testing.T) {
	cases := []struct {
		name string
		pop  *Population
		want string
	}{
		{"one stratum", &Population{Strata: []Stratum{
			{Generation: "g", Fraction: 1},
		}}, ">= 2 strata"},
		{"fractions do not sum", &Population{Strata: []Stratum{
			{Generation: "a", Fraction: 0.5},
			{Generation: "b", Fraction: 0.2},
		}}, "sum to"},
		{"negative fraction", &Population{Strata: []Stratum{
			{Generation: "a", Fraction: 1.5},
			{Generation: "b", Fraction: -0.5},
		}}, "[0,1]"},
		{"untagged stratum", &Population{Strata: []Stratum{
			{Fraction: 0.5},
			{Generation: "b", Fraction: 0.5},
		}}, "no population features"},
		{"reserved bytes", &Population{Strata: []Stratum{
			{Generation: "a;b", Fraction: 0.5},
			{Generation: "c", Fraction: 0.5},
		}}, "reserved bytes"},
		{"duplicate stratum", &Population{Strata: []Stratum{
			{Generation: "a", Fraction: 0.5},
			{Generation: "a", Fraction: 0.5},
		}}, "duplicate"},
		{"negative cost factor", &Population{Strata: []Stratum{
			{Generation: "a", Fraction: 0.5, CostFactor: -1},
			{Generation: "b", Fraction: 0.5},
		}}, "negative cost factor"},
		{"shift wrong arity", &Population{
			Strata: []Stratum{
				{Generation: "a", Fraction: 0.5},
				{Generation: "b", Fraction: 0.5},
			},
			Shifts: []MixShift{{At: popT0, Fractions: []float64{1}}},
		}, "1 fractions for 2 strata"},
		{"shift bad sum", &Population{
			Strata: []Stratum{
				{Generation: "a", Fraction: 0.5},
				{Generation: "b", Fraction: 0.5},
			},
			Shifts: []MixShift{{At: popT0, Fractions: []float64{0.9, 0.9}}},
		}, "sum to"},
		{"overlapping ramps", &Population{
			Strata: []Stratum{
				{Generation: "a", Fraction: 0.5},
				{Generation: "b", Fraction: 0.5},
			},
			Shifts: []MixShift{
				{At: popT0, Ramp: time.Hour, Fractions: []float64{0.2, 0.8}},
				{At: popT0.Add(30 * time.Minute), Fractions: []float64{0.5, 0.5}},
			},
		}, "overlaps"},
	}
	for _, tc := range cases {
		_, err := NewService(popTestConfig(tc.pop))
		if err == nil {
			t.Errorf("%s: invalid population accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	if _, err := NewService(popTestConfig(twoStrata())); err != nil {
		t.Errorf("valid population rejected: %v", err)
	}
}

func TestFractionsAt(t *testing.T) {
	pop := twoStrata()
	pop.Shifts = []MixShift{
		{At: popT0.Add(time.Hour), Ramp: 2 * time.Hour, Fractions: []float64{0.2, 0.8}},
		{At: popT0.Add(4 * time.Hour), Fractions: []float64{0.5, 0.5}},
	}
	check := func(at time.Time, want0 float64) {
		t.Helper()
		fr := pop.fractionsAt(at)
		if math.Abs(fr[0]-want0) > 1e-12 || math.Abs(fr[0]+fr[1]-1) > 1e-12 {
			t.Errorf("fractionsAt(%v) = %v, want [%v, %v]", at, fr, want0, 1-want0)
		}
	}
	check(popT0, 0.8)                                 // before any shift
	check(popT0.Add(time.Hour), 0.8)                  // ramp start
	check(popT0.Add(2*time.Hour), 0.5)                // halfway up the ramp
	check(popT0.Add(3*time.Hour), 0.2)                // ramp complete
	check(popT0.Add(3*time.Hour+30*time.Minute), 0.2) // between shifts
	check(popT0.Add(4*time.Hour), 0.5)                // step shift applied
}

// TestPopulationEmission runs a short simulation and checks the emitted
// series: weight series track the scheduled mix exactly, per-stratum
// gCPU series stay near their own cost levels, and the aggregate tracks
// the population-weighted mix.
func TestPopulationEmission(t *testing.T) {
	pop := &Population{
		Strata: []Stratum{
			{Generation: "old", Region: "west", Fraction: 0.9, CostFactor: 1},
			{Generation: "new", Region: "west", Fraction: 0.1, CostFactor: 0.5},
		},
		Shifts: []MixShift{{At: popT0.Add(time.Hour), Fractions: []float64{0.1, 0.9}}},
	}
	cfg := popTestConfig(pop)
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db := tsdb.New(time.Minute)
	if err := svc.Run(db, nil, popT0, popT0.Add(2*time.Hour)); err != nil {
		t.Fatal(err)
	}

	oldTag := popshift.Stratum{Gen: "old", Region: "west"}
	newTag := popshift.Stratum{Gen: "new", Region: "west"}

	// Weight series: exact, noise-free, stepping at the shift.
	wOld, err := db.Full(tsdb.ID("popsvc", popshift.TagEntity("", oldTag), popshift.WeightMetric))
	if err != nil {
		t.Fatal(err)
	}
	if wOld.Values[0] != 0.9 || wOld.Values[len(wOld.Values)-1] != 0.1 {
		t.Errorf("old weight endpoints = %v, %v; want 0.9, 0.1",
			wOld.Values[0], wOld.Values[len(wOld.Values)-1])
	}
	wNew, err := db.Full(tsdb.ID("popsvc", popshift.TagEntity("", newTag), popshift.WeightMetric))
	if err != nil {
		t.Fatal(err)
	}
	for i := range wOld.Values {
		if math.Abs(wOld.Values[i]+wNew.Values[i]-1) > 1e-12 {
			t.Fatalf("weights at step %d do not sum to 1", i)
		}
	}

	// Per-stratum gCPU: the cheap stratum's series must sit near half the
	// expensive one's, and neither may move at the shift (behavior is
	// constant; only the mix moved).
	mean := func(vs []float64) float64 {
		s := 0.0
		for _, v := range vs {
			s += v
		}
		return s / float64(len(vs))
	}
	gOld, err := db.Full(tsdb.ID("popsvc", popshift.TagEntity("work", oldTag), "gcpu"))
	if err != nil {
		t.Fatal(err)
	}
	gNew, err := db.Full(tsdb.ID("popsvc", popshift.TagEntity("work", newTag), "gcpu"))
	if err != nil {
		t.Fatal(err)
	}
	mOld, mNew := mean(gOld.Values), mean(gNew.Values)
	if math.Abs(mNew/mOld-0.5) > 0.05 {
		t.Errorf("stratum cost ratio = %v, want ~0.5", mNew/mOld)
	}
	preOld, postOld := mean(gOld.Values[:60]), mean(gOld.Values[60:])
	if math.Abs(postOld-preOld) > 0.05*preOld {
		t.Errorf("per-stratum behavior moved across the shift: %v -> %v", preOld, postOld)
	}

	// Aggregate gCPU: must step down as the cheap stratum takes over
	// (mix factor 0.95 -> 0.55).
	agg, err := db.Full(tsdb.ID("popsvc", "work", "gcpu"))
	if err != nil {
		t.Fatal(err)
	}
	preAgg, postAgg := mean(agg.Values[:60]), mean(agg.Values[60:])
	wantRatio := (0.1*1 + 0.9*0.5) / (0.9*1 + 0.1*0.5)
	if math.Abs(postAgg/preAgg-wantRatio) > 0.05 {
		t.Errorf("aggregate mix ratio = %v, want ~%v", postAgg/preAgg, wantRatio)
	}
}

// TestPopulationNilLeavesSeriesBitExact: configuring no population must
// leave every emitted series bit-identical to the pre-population
// simulator — the rng sequence is not perturbed.
func TestPopulationNilLeavesSeriesBitExact(t *testing.T) {
	run := func(pop *Population) *tsdb.DB {
		cfg := popTestConfig(pop)
		svc, err := NewService(cfg)
		if err != nil {
			t.Fatal(err)
		}
		db := tsdb.New(time.Minute)
		if err := svc.Run(db, nil, popT0, popT0.Add(time.Hour)); err != nil {
			t.Fatal(err)
		}
		return db
	}
	plain := run(nil)
	stratified := run(twoStrata())
	for _, id := range plain.Metrics("popsvc") {
		a, err := plain.Full(id)
		if err != nil {
			t.Fatal(err)
		}
		b, err := stratified.Full(id)
		if err != nil {
			t.Fatalf("series %s missing with population configured: %v", id, err)
		}
		if len(a.Values) != len(b.Values) {
			t.Fatalf("series %s length changed", id)
		}
	}
	// The sharp check: a population whose strata all have cost factor 1
	// and never shift leaves the aggregates bit-identical (mix factor is
	// exactly 1 and population draws come from a separate rng).
	neutral := &Population{Strata: []Stratum{
		{Generation: "a", Fraction: 0.5, CostFactor: 1},
		{Generation: "b", Fraction: 0.5, CostFactor: 1},
	}}
	withNeutral := run(neutral)
	for _, id := range plain.Metrics("popsvc") {
		a, _ := plain.Full(id)
		b, err := withNeutral.Full(id)
		if err != nil {
			t.Fatalf("series %s missing: %v", id, err)
		}
		for i := range a.Values {
			if a.Values[i] != b.Values[i] {
				t.Fatalf("series %s diverges at step %d: %v != %v (rng perturbed)",
					id, i, a.Values[i], b.Values[i])
			}
		}
	}
}
