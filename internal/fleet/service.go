package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"fbdetect/internal/changelog"
	"fbdetect/internal/stacktrace"
	"fbdetect/internal/tsdb"
)

// Generation describes one server generation in a heterogeneous fleet.
// Mixed generations are a major variance source at hyperscale (paper §2).
type Generation struct {
	Name        string
	Fraction    float64 // fraction of the service's servers
	SpeedFactor float64 // CPU-time multiplier relative to the baseline
}

// Config describes a simulated service.
type Config struct {
	Name    string
	Servers int
	Step    time.Duration
	// SamplesPerStep is the total number of stack-trace samples collected
	// across the fleet per step; it controls binomial noise on gCPU.
	SamplesPerStep float64
	// BaseCPU is the per-server mean process CPU utilization in [0, 1].
	BaseCPU float64
	// CPUNoise is the per-server CPU noise standard deviation.
	CPUNoise float64
	// SeasonalAmp and SeasonalPeriod define a sinusoidal diurnal pattern
	// added multiplicatively to CPU and throughput; amp 0 disables it.
	SeasonalAmp    float64
	SeasonalPeriod time.Duration
	// BaseThroughput is the fleet-wide requests/sec; BaseLatency the mean
	// latency (ms); BaseErrorRate the error fraction.
	BaseThroughput  float64
	ThroughputNoise float64
	BaseLatency     float64
	LatencyNoise    float64
	BaseErrorRate   float64
	ErrorNoise      float64
	// Generations describes the fleet mix; empty means one homogeneous
	// generation.
	Generations []Generation
	// Population stratifies the fleet into tagged population cells
	// (generation × region × traffic class) with scheduled mix shifts.
	// When set, the simulator emits per-stratum metric series and
	// population-weight series alongside the aggregates, and the
	// aggregates scale with the population-weighted cost factor — the
	// raw material for the pop-shift diagnosis stage. Nil leaves every
	// existing series bit-exact.
	Population *Population
	Tree       *Tree
	Seed       int64
	// EmitSubroutines limits gCPU emission to the named subroutines; nil
	// emits every subroutine in the tree (can be large).
	EmitSubroutines []string
	// EmitMetadata lists metadata annotations to emit dedicated gCPU
	// series for (metric entity "meta:<value>"), enabling
	// metadata-annotated regression detection (paper §3).
	EmitMetadata []string
	// QuantizeSamples rounds emitted gCPU values to the decimal grid a
	// counting profiler can actually resolve: 1/10^ceil(log10(n)) for n
	// samples per step (capped at 1e-9). A sample counter cannot report
	// fractions finer than 1/n, so full float64 mantissas on gCPU are
	// simulation artifacts; quantizing removes them, which also lets the
	// chunked store pack fleet telemetry as scaled integers.
	QuantizeSamples bool
}

func (c Config) validate() error {
	if c.Name == "" {
		return fmt.Errorf("fleet: service name required")
	}
	if c.Servers <= 0 {
		return fmt.Errorf("fleet: servers must be positive")
	}
	if c.Step <= 0 {
		return fmt.Errorf("fleet: step must be positive")
	}
	if c.Tree == nil {
		return fmt.Errorf("fleet: call tree required")
	}
	if c.BaseCPU < 0 || c.BaseCPU > 1 {
		return fmt.Errorf("fleet: base CPU out of [0,1]: %v", c.BaseCPU)
	}
	if c.Population != nil {
		if err := c.Population.validate(); err != nil {
			return err
		}
	}
	return nil
}

// ScheduledChange is a code or configuration change applied to the
// service's call tree at a point in simulated time.
type ScheduledChange struct {
	At     time.Time
	Effect func(*Tree) error
	Record *changelog.Change // optional metadata recorded into the change log
}

// treeEpoch is the call tree in effect starting at a given time.
type treeEpoch struct {
	start time.Time
	tree  *Tree
}

// Service simulates one service. Construct with NewService; methods are
// not safe for concurrent use.
type Service struct {
	cfg           Config
	rng           *rand.Rand
	epochs        []treeEpoch // sorted by start; epochs[0].start is zero time
	changes       []ScheduledChange
	nextChange    int // index of the first change not yet materialized
	issues        []Issue
	initialWeight float64
	avgSpeed      float64
	sampleScale   float64     // gCPU quantization grid (0: quantization off)
	pop           *popEmitter // nil unless Config.Population is set
}

// NewService validates the config and returns a simulator for the service.
func NewService(cfg Config) (*Service, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	avgSpeed := 1.0
	if len(cfg.Generations) > 0 {
		avgSpeed = 0
		frac := 0.0
		for _, g := range cfg.Generations {
			// Each fraction must be a valid share on its own: a set like
			// {1.5, -0.5} sums to 1 but describes an impossible fleet, and
			// negative fractions silently flip speed-factor contributions.
			if g.Fraction < 0 || g.Fraction > 1 || math.IsNaN(g.Fraction) {
				return nil, fmt.Errorf("fleet: generation %q fraction %v out of [0,1]",
					g.Name, g.Fraction)
			}
			avgSpeed += g.Fraction * g.SpeedFactor
			frac += g.Fraction
		}
		if math.Abs(frac-1) > 1e-6 {
			return nil, fmt.Errorf("fleet: generation fractions sum to %v, want 1", frac)
		}
	}
	sampleScale := 0.0
	if cfg.QuantizeSamples && cfg.SamplesPerStep > 0 {
		sampleScale = math.Pow(10, math.Ceil(math.Log10(cfg.SamplesPerStep)))
		if sampleScale > 1e9 {
			sampleScale = 1e9
		}
	}
	return &Service{
		cfg:           cfg,
		rng:           rand.New(rand.NewSource(cfg.Seed)),
		epochs:        []treeEpoch{{tree: cfg.Tree.Clone()}},
		initialWeight: cfg.Tree.TotalWeight(),
		avgSpeed:      avgSpeed,
		sampleScale:   sampleScale,
		pop:           newPopEmitter(cfg.Population, cfg.Seed),
	}, nil
}

// Name returns the service name.
func (s *Service) Name() string { return s.cfg.Name }

// ScheduleChange registers a change to apply at ch.At. Changes may be
// scheduled in any order, but must be scheduled before the simulation
// reads (via Run, TreeAt, or ExpectedSamplesBetween) past their deploy
// time.
func (s *Service) ScheduleChange(ch ScheduledChange) {
	s.changes = append(s.changes, ch)
	sort.SliceStable(s.changes[s.nextChange:], func(i, j int) bool {
		return s.changes[s.nextChange+i].At.Before(s.changes[s.nextChange+j].At)
	})
}

// ScheduleIssue registers a transient issue.
func (s *Service) ScheduleIssue(is Issue) {
	s.issues = append(s.issues, is)
}

// TreeAt returns the call tree in effect at t. Before Run applies a
// scheduled change the tree for times past the change is not yet
// materialized; TreeAt materializes epochs on demand instead, so it is
// always consistent with scheduled changes.
func (s *Service) TreeAt(t time.Time) *Tree {
	s.materializeUpTo(t)
	cur := s.epochs[0].tree
	for _, e := range s.epochs[1:] {
		if e.start.After(t) {
			break
		}
		cur = e.tree
	}
	return cur
}

// materializeUpTo applies scheduled changes with At <= t that have not yet
// produced an epoch.
func (s *Service) materializeUpTo(t time.Time) {
	for s.nextChange < len(s.changes) && !s.changes[s.nextChange].At.After(t) {
		ch := s.changes[s.nextChange]
		s.nextChange++
		next := s.epochs[len(s.epochs)-1].tree.Clone()
		if err := ch.Effect(next); err != nil {
			// Skip invalid effects; callers validate their schedules.
			continue
		}
		s.epochs = append(s.epochs, treeEpoch{start: ch.At, tree: next})
	}
}

// seasonFactor returns the multiplicative seasonal factor at t.
func (s *Service) seasonFactor(t time.Time) float64 {
	if s.cfg.SeasonalAmp == 0 || s.cfg.SeasonalPeriod <= 0 {
		return 1
	}
	phase := float64(t.UnixNano()%int64(s.cfg.SeasonalPeriod)) / float64(s.cfg.SeasonalPeriod)
	return 1 + s.cfg.SeasonalAmp*math.Sin(2*math.Pi*phase)
}

// issueFactors returns the combined multiplicative impact of active issues
// at t on (cpu, throughput, latency, error rate).
func (s *Service) issueFactors(t time.Time) (cpu, thr, lat, errRate float64) {
	cpu, thr, lat, errRate = 1, 1, 1, 1
	for _, is := range s.issues {
		if is.Active(t) {
			cpu *= is.CPUFactor
			thr *= is.ThroughputFactor
			lat *= is.LatencyFactor
			errRate *= is.ErrorFactor
		}
	}
	return cpu, thr, lat, errRate
}

// Run simulates [from, to) and appends every metric series to db,
// recording scheduled change metadata into log (which may be nil).
func (s *Service) Run(db *tsdb.DB, log *changelog.Log, from, to time.Time) error {
	if db.Step() != s.cfg.Step {
		return fmt.Errorf("fleet: db step %s != service step %s", db.Step(), s.cfg.Step)
	}
	if log != nil {
		for _, ch := range s.changes {
			if ch.Record != nil && !ch.At.Before(from) && ch.At.Before(to) {
				rec := *ch.Record
				rec.Service = s.cfg.Name
				rec.DeployedAt = ch.At
				log.Record(&rec)
			}
		}
	}
	emit := s.cfg.EmitSubroutines
	for t := from; t.Before(to); t = t.Add(s.cfg.Step) {
		tree := s.TreeAt(t)
		season := s.seasonFactor(t)
		cpuF, thrF, latF, errF := s.issueFactors(t)

		// Population mix for this step: emits the per-stratum weight
		// series and yields the population-weighted cost factor the
		// aggregates scale by (1 when no population is configured).
		mix, err := s.pop.step(db, s.cfg.Name, t)
		if err != nil {
			return err
		}

		// Process-level CPU: base scaled by total subroutine cost, with
		// fleet-averaged noise (per-server sigma shrinks by sqrt(m)).
		costScale := tree.TotalWeight() / s.initialWeight
		m := float64(s.cfg.Servers)
		cpuNoise := s.rng.NormFloat64() * s.cfg.CPUNoise / math.Sqrt(m)
		cpuBase := s.cfg.BaseCPU * costScale * s.avgSpeedFactor() * season * cpuF
		cpu := clamp01(cpuBase*mix + cpuNoise)
		if err := db.Append(tsdb.ID(s.cfg.Name, "", "cpu"), t, cpu); err != nil {
			return err
		}
		if err := s.pop.emitCPU(db, s.cfg.Name, t, cpuBase, s.cfg.CPUNoise, m); err != nil {
			return err
		}

		// Throughput, latency, error rate.
		thr := s.cfg.BaseThroughput*season*thrF +
			s.rng.NormFloat64()*s.cfg.ThroughputNoise
		if thr < 0 {
			thr = 0
		}
		if err := db.Append(tsdb.ID(s.cfg.Name, "", "throughput"), t, thr); err != nil {
			return err
		}
		if s.cfg.BaseLatency > 0 {
			lat := s.cfg.BaseLatency*latF*costScale +
				s.rng.NormFloat64()*s.cfg.LatencyNoise
			if lat < 0 {
				lat = 0
			}
			if err := db.Append(tsdb.ID(s.cfg.Name, "", "latency"), t, lat); err != nil {
				return err
			}
		}
		if s.cfg.BaseErrorRate > 0 {
			er := s.cfg.BaseErrorRate*errF + s.rng.NormFloat64()*s.cfg.ErrorNoise
			if er < 0 {
				er = 0
			}
			if err := db.Append(tsdb.ID(s.cfg.Name, "", "error_rate"), t, er); err != nil {
				return err
			}
		}

		// Subroutine-level gCPU with binomial sampling noise:
		// sd = sqrt(p(1-p)/n) for n samples per step.
		n := s.cfg.SamplesPerStep
		if n > 0 {
			gcpus := tree.GCPUAll()
			subs := emit
			if subs == nil {
				subs = tree.Subroutines()
			}
			seen := make(map[string]bool, len(subs))
			for _, sub := range subs {
				if seen[sub] {
					continue // tolerate duplicates in EmitSubroutines
				}
				seen[sub] = true
				p := clamp01(gcpus[sub]) // float error can leave [0,1] and poison the sqrt
				agg := clamp01(p * mix)  // fleet average over the population mix
				sd := math.Sqrt(agg * (1 - agg) / n)
				g := agg + s.rng.NormFloat64()*sd
				if g < 0 {
					g = 0
				}
				g = s.quantize(g)
				if err := db.Append(tsdb.ID(s.cfg.Name, sub, "gcpu"), t, g); err != nil {
					return err
				}
				if err := s.pop.emitGCPU(db, s.cfg.Name, sub, t, p, n, s.quantize); err != nil {
					return err
				}
			}
			for _, meta := range s.cfg.EmitMetadata {
				p := clamp01(tree.GCPUMetadata(meta))
				agg := clamp01(p * mix)
				sd := math.Sqrt(agg * (1 - agg) / n)
				g := agg + s.rng.NormFloat64()*sd
				if g < 0 {
					g = 0
				}
				g = s.quantize(g)
				if err := db.Append(tsdb.ID(s.cfg.Name, "meta:"+meta, "gcpu"), t, g); err != nil {
					return err
				}
				if err := s.pop.emitGCPU(db, s.cfg.Name, "meta:"+meta, t, p, n, s.quantize); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// quantize rounds a gCPU value onto the sampling-resolution grid; a
// no-op (identity) when QuantizeSamples is off. It sits after the rng
// draws, so enabling quantization does not perturb the rng sequence.
func (s *Service) quantize(g float64) float64 {
	if s.sampleScale == 0 {
		return g
	}
	return math.Round(g*s.sampleScale) / s.sampleScale
}

func (s *Service) avgSpeedFactor() float64 {
	if s.avgSpeed == 0 {
		return 1
	}
	return s.avgSpeed
}

// ExpectedSamplesBetween returns the exact expected stack-trace sample set
// over [from, to): per-epoch expected samples weighted by the fraction of
// the interval each epoch covers.
func (s *Service) ExpectedSamplesBetween(from, to time.Time, totalSamples float64) *stacktrace.SampleSet {
	s.materializeUpTo(to)
	span := to.Sub(from)
	if span <= 0 {
		return stacktrace.NewSampleSet()
	}
	out := stacktrace.NewSampleSet()
	for i, e := range s.epochs {
		start := e.start
		if start.Before(from) {
			start = from
		}
		end := to
		if i+1 < len(s.epochs) && s.epochs[i+1].start.Before(to) {
			end = s.epochs[i+1].start
		}
		if !end.After(start) {
			continue
		}
		frac := float64(end.Sub(start)) / float64(span)
		out = out.Merge(e.tree.ExpectedSamples(totalSamples * frac))
	}
	return out
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
