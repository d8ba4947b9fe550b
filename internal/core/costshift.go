package core

import (
	"math"
	"time"

	"fbdetect/internal/stacktrace"
)

// SampleProvider supplies stack-trace sample sets for a service over a
// time range. The fleet simulator implements it; in production this is the
// profiling data store.
type SampleProvider interface {
	SamplesBetween(service string, from, to time.Time) *stacktrace.SampleSet
}

// CostDomain is a group of subroutines within which a cost shift is likely
// to occur (paper §5.4): the subroutine plus an upstream caller, all
// methods of its class, subroutines sharing a metadata prefix, or
// subroutines modified by one commit.
type CostDomain struct {
	Name        string
	Subroutines map[string]bool
}

// Cost returns the domain's gCPU in the sample set: the fraction of
// samples touching any member.
func (d CostDomain) Cost(ss *stacktrace.SampleSet) float64 {
	return ss.GCPUGroup(d.Subroutines)
}

// DomainDetector proposes cost domains for a regressed subroutine.
// FBDetect ships default detectors and allows custom ones (paper §5.4).
type DomainDetector interface {
	// Domains returns candidate cost domains for the regression given the
	// pre-regression samples.
	Domains(r *Regression, before *stacktrace.SampleSet) []CostDomain
}

// CallerDomains treats each upstream caller of the regressed subroutine as
// a cost domain: the caller's own subtree cost contains the regressed
// subroutine's, so a pure shift between siblings leaves it unchanged.
type CallerDomains struct{}

// Domains implements DomainDetector.
func (CallerDomains) Domains(r *Regression, before *stacktrace.SampleSet) []CostDomain {
	var out []CostDomain
	for _, caller := range before.Callers(r.Entity) {
		out = append(out, CostDomain{
			Name:        "caller:" + caller,
			Subroutines: map[string]bool{caller: true},
		})
	}
	return out
}

// ClassDomains treats all subroutines of the regressed subroutine's class
// as one cost domain.
type ClassDomains struct{}

// Domains implements DomainDetector.
func (ClassDomains) Domains(r *Regression, before *stacktrace.SampleSet) []CostDomain {
	class := before.ClassOf(r.Entity)
	if class == "" {
		return nil
	}
	members := map[string]bool{}
	for _, m := range before.ClassMembers(class) {
		members[m] = true
	}
	if len(members) < 2 {
		return nil // a single-method class cannot shift cost internally
	}
	return []CostDomain{{Name: "class:" + class, Subroutines: members}}
}

// DefaultDomainDetectors returns the built-in detectors.
func DefaultDomainDetectors() []DomainDetector {
	return []DomainDetector{CallerDomains{}, ClassDomains{}}
}

// CostShiftVerdict explains the cost-shift decision.
type CostShiftVerdict struct {
	// IsCostShift is true when the regression is explained by cost moving
	// within some domain (and should be filtered).
	IsCostShift bool
	// Domain names the domain that absorbed the shift, when IsCostShift.
	Domain string
}

// negligibleChangeFraction: a regression is a cost shift when a domain's
// cost change is below this fraction of the regression's cost change.
const negligibleChangeFraction = 0.25

// CheckCostShift decides whether a subroutine-level gCPU regression is a
// cost shift (paper §5.4). For each candidate domain it applies the
// paper's three rules: a domain absent before the regression cannot
// explain it; a domain far costlier than the regression is excluded (its
// own variation would mask the comparison); and a domain whose total cost
// change is negligible relative to the regression's marks a cost shift.
func CheckCostShift(cfg CostShiftConfig, detectors []DomainDetector, r *Regression,
	before, after *stacktrace.SampleSet) CostShiftVerdict {
	cfg = cfg.withDefaults()
	if r.Entity == "" || r.Delta <= 0 || before == nil || after == nil {
		return CostShiftVerdict{}
	}
	if len(detectors) == 0 {
		detectors = DefaultDomainDetectors()
	}
	for _, det := range detectors {
		for _, dom := range det.Domains(r, before) {
			costBefore := dom.Cost(before)
			if costBefore == 0 {
				continue // domain did not exist before the regression
			}
			if costBefore > cfg.MaxDomainCostRatio*r.Delta {
				continue // domain too large to judge the regression against
			}
			// Because gCPU is relative, a true cost increase inside a
			// domain covering fraction D of the process raises the
			// domain's gCPU by only Delta*(1-D): the increase inflates the
			// denominator too. A domain with no headroom (D near 1, e.g.
			// the root caller) cannot discriminate shifts from true
			// regressions, so skip it.
			headroom := 1 - costBefore
			if headroom < 0.05 {
				continue
			}
			expected := r.Delta * headroom
			domainDelta := dom.Cost(after) - costBefore
			if math.Abs(domainDelta) < negligibleChangeFraction*expected {
				return CostShiftVerdict{IsCostShift: true, Domain: dom.Name}
			}
		}
	}
	return CostShiftVerdict{}
}
