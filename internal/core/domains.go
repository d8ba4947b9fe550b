package core

import (
	"strings"
	"time"

	"fbdetect/internal/changelog"
	"fbdetect/internal/stacktrace"
	"fbdetect/internal/stats"
	"fbdetect/internal/timeseries"
	"fbdetect/internal/tsdb"
)

// MetadataDomains groups subroutines whose frames share a metadata prefix
// with the regressed subroutine's annotation (paper §5.4), supporting the
// SetFrameMetadata-annotated detection of §3.
type MetadataDomains struct{}

// Domains implements DomainDetector.
func (MetadataDomains) Domains(r *Regression, before *stacktrace.SampleSet) []CostDomain {
	meta := before.MetadataOf(r.Entity)
	if meta == "" {
		return nil
	}
	prefix := stacktrace.MetadataPrefix(meta)
	members := before.MetadataPrefixMembers(prefix)
	if len(members) < 2 {
		return nil
	}
	set := make(map[string]bool, len(members))
	for _, m := range members {
		set[m] = true
	}
	return []CostDomain{{Name: "metadata:" + prefix, Subroutines: set}}
}

// CommitDomains groups all subroutines modified by one code commit (paper
// §5.4: "a further detector groups all subroutines modified by a code
// commit"): if a commit rearranged work among the subroutines it touched
// without changing their total, the regression is a cost shift. The
// commit search spans the root-cause window around the change point.
type CommitDomains struct {
	Log *changelog.Log
}

// Domains implements DomainDetector.
func (d CommitDomains) Domains(r *Regression, before *stacktrace.SampleSet) []CostDomain {
	if d.Log == nil {
		return nil
	}
	var out []CostDomain
	from := r.ChangePointTime.Add(-rootCauseLookback)
	to := r.ChangePointTime.Add(rootCauseLookback / 4)
	for _, c := range d.Log.TouchingSubroutine(r.Service, r.Entity, from, to) {
		if len(c.Subroutines) < 2 {
			continue // a single-subroutine commit cannot shift internally
		}
		out = append(out, CostDomain{
			Name:        "commit:" + c.ID,
			Subroutines: c.ModifiedSet(),
		})
	}
	return out
}

// CheckEndpointCostShift applies cost-shift analysis to an endpoint-level
// regression using the endpoint-name-prefix domain of paper §5.4:
// endpoints sharing a path prefix form a domain, and if the domain's
// total cost is unchanged while one endpoint regressed, work merely moved
// between sibling endpoints (for example, a handler split). Endpoint cost
// series live in the time-series store rather than stack samples, so this
// check reads db directly.
//
// The regression's entity must use the "endpoint:<name>" convention the
// fleet emitter follows.
func CheckEndpointCostShift(cfg CostShiftConfig, db *tsdb.DB, r *Regression, windows timeseries.WindowConfig, scanTime time.Time) CostShiftVerdict {
	cfg = cfg.withDefaults()
	const prefix = "endpoint:"
	if db == nil || !strings.HasPrefix(r.Entity, prefix) || r.Delta <= 0 {
		return CostShiftVerdict{}
	}
	name := strings.TrimPrefix(r.Entity, prefix)
	domainPrefix := endpointParent(name)
	if domainPrefix == "" {
		return CostShiftVerdict{}
	}

	// Sum sibling endpoint series (same prefix) around the change point.
	var beforeSum, afterSum float64
	siblings := 0
	var sc tsdb.Scratch
	for _, id := range db.Metrics(r.Service) {
		_, entity, metric := id.Parts()
		if metric != "endpoint_cost" || !strings.HasPrefix(entity, prefix) {
			continue
		}
		if !strings.HasPrefix(strings.TrimPrefix(entity, prefix), domainPrefix+"/") &&
			strings.TrimPrefix(entity, prefix) != domainPrefix {
			continue
		}
		view, err := db.View(id, scanTime.Add(-windows.Total()), scanTime, &sc)
		if err == nil {
			err = view.Materialize(0, view.N)
		}
		if err != nil {
			continue
		}
		series := view.Series()
		cp := series.IndexOf(r.ChangePointTime)
		if cp <= 0 || cp >= series.Len() {
			continue
		}
		siblings++
		beforeSum += stats.Mean(series.Values[:cp])
		afterSum += stats.Mean(series.Values[cp:])
	}
	if siblings < 2 {
		return CostShiftVerdict{} // no domain to shift within
	}
	if beforeSum == 0 {
		return CostShiftVerdict{}
	}
	if beforeSum > cfg.MaxDomainCostRatio*r.Delta {
		return CostShiftVerdict{}
	}
	domainDelta := afterSum - beforeSum
	if abs(domainDelta) < negligibleChangeFraction*r.Delta {
		return CostShiftVerdict{IsCostShift: true, Domain: "endpoint-prefix:" + domainPrefix}
	}
	return CostShiftVerdict{}
}

// endpointParent returns the endpoint's parent path ("/feed/home" ->
// "/feed"), or "" for top-level endpoints.
func endpointParent(name string) string {
	i := strings.LastIndex(name, "/")
	if i <= 0 {
		return ""
	}
	return name[:i]
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
