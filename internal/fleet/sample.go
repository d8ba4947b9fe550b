package fleet

import (
	"math/rand"
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

// DrawSamples draws n random stack-trace samples from the tree's
// self-weight distribution, modeling what the fleet-wide profilers capture
// in one collection interval.
func (t *Tree) DrawSamples(rng *rand.Rand, n int) *stacktrace.SampleSet {
	ss := stacktrace.NewSampleSet()
	total := t.TotalWeight()
	if total == 0 || n <= 0 {
		return ss
	}
	// Build the cumulative distribution over nodes once.
	type entry struct {
		node *Node
		cum  float64
	}
	var entries []entry
	cum := 0.0
	var walk func(n *Node)
	walk = func(nd *Node) {
		if nd.SelfWeight > 0 {
			cum += nd.SelfWeight
			entries = append(entries, entry{nd, cum})
		}
		for _, c := range nd.Children {
			walk(c)
		}
	}
	walk(t.Root)
	for i := 0; i < n; i++ {
		x := rng.Float64() * total
		// Binary search the cumulative table.
		lo, hi := 0, len(entries)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if entries[mid].cum < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		ss.Add(t.tracePath(entries[lo].node), 1)
	}
	return ss
}

func (t *Tree) tracePath(n *Node) stacktrace.Trace {
	var rev []*Node
	for ; n != nil; n = n.parent {
		rev = append(rev, n)
	}
	tr := make(stacktrace.Trace, len(rev))
	for i, nd := range rev {
		tr[len(rev)-1-i] = stacktrace.Frame{Subroutine: nd.Name, Class: nd.Class,
			Metadata: nd.Metadata}
	}
	return tr
}
