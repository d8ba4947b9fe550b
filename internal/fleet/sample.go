package fleet

import (
	"time"

	"fbdetect/internal/stacktrace"
)

// Samples answers stack-sample queries from simulated services; it
// satisfies the detector's SampleProvider. Each query returns the exact
// expected sample set of budget samples over the queried window.
type Samples struct {
	only   *Service
	byName map[string]*Service
	budget float64
}

// SamplesOf answers every query from svc, whatever service it names.
func SamplesOf(svc *Service, budget float64) Samples {
	return Samples{only: svc, budget: budget}
}

// SamplesByName answers each query from the service of that name, and
// with an empty set for a name services does not hold.
func SamplesByName(services map[string]*Service, budget float64) Samples {
	return Samples{byName: services, budget: budget}
}

// SamplesBetween returns the expected samples of service over [from, to).
func (p Samples) SamplesBetween(service string, from, to time.Time) *stacktrace.SampleSet {
	svc := p.only
	if svc == nil {
		svc = p.byName[service]
	}
	if svc == nil {
		return stacktrace.NewSampleSet()
	}
	return svc.ExpectedSamplesBetween(from, to, p.budget)
}

// ExpectedSamples returns a SampleSet whose weights are the exact expected
// sample mass for each root-to-node path given totalSamples stack-trace
// samples: weight(path to n) = totalSamples * SelfWeight(n) / TotalWeight.
// Root-cause attribution and cost-shift analysis consume these exact sets;
// the paper's production system approximates them with enough raw samples.
func (t *Tree) ExpectedSamples(totalSamples float64) *stacktrace.SampleSet {
	ss := stacktrace.NewSampleSet()
	total := t.TotalWeight()
	if total == 0 || totalSamples <= 0 {
		return ss
	}
	var walk func(n *Node, path stacktrace.Trace)
	walk = func(n *Node, path stacktrace.Trace) {
		frame := stacktrace.Frame{Subroutine: n.Name, Class: n.Class, Metadata: n.Metadata}
		path = append(path, frame)
		if n.SelfWeight > 0 {
			tr := make(stacktrace.Trace, len(path))
			copy(tr, path)
			ss.Add(tr, totalSamples*n.SelfWeight/total)
		}
		for _, c := range n.Children {
			walk(c, path)
		}
	}
	walk(t.Root, nil)
	return ss
}
