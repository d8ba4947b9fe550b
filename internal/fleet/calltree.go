// Package fleet simulates the production environment FBDetect monitors:
// services with synthetic call trees running on heterogeneous server
// generations, emitting subroutine-level gCPU series, service-level CPU,
// throughput, latency, and error-rate series into a time-series database,
// with seasonality, transient issues (failures, maintenance, load spikes,
// rolling updates, canary tests, traffic shifts), and scheduled code or
// configuration changes that perturb subroutine costs.
//
// The simulator substitutes for Meta's fleet per DESIGN.md: the detection
// pipeline consumes time series and stack-trace samples, and this package
// produces both with the statistical structure the paper describes
// (normal per-server noise, binomial sampling noise on gCPU, regressions
// as mean shifts).
package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Node is one subroutine in a service's call tree. SelfWeight is the
// relative amount of CPU burned in the subroutine itself (exclusive time);
// a stack-trace sample lands on a node with probability proportional to
// SelfWeight and yields the root-to-node path as its trace.
type Node struct {
	Name       string
	Class      string
	SelfWeight float64
	// Metadata annotates the subroutine's stack frames, as set via
	// SetFrameMetadata in production code (paper §3); samples through
	// this node carry it, enabling metadata-annotated regression
	// detection.
	Metadata string
	Children []*Node
	parent   *Node
}

// Tree is a service's call tree.
type Tree struct {
	Root   *Node
	byName map[string]*Node
}

// NewTree builds a tree from the given root and indexes nodes by name.
// Node names must be unique.
func NewTree(root *Node) (*Tree, error) {
	t := &Tree{Root: root, byName: map[string]*Node{}}
	var walk func(n *Node) error
	walk = func(n *Node) error {
		if n.Name == "" {
			return fmt.Errorf("fleet: unnamed node")
		}
		if _, dup := t.byName[n.Name]; dup {
			return fmt.Errorf("fleet: duplicate subroutine %q", n.Name)
		}
		if n.SelfWeight < 0 {
			return fmt.Errorf("fleet: negative self weight on %q", n.Name)
		}
		t.byName[n.Name] = n
		for _, c := range n.Children {
			c.parent = n
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	if root == nil {
		return nil, fmt.Errorf("fleet: nil root")
	}
	if err := walk(root); err != nil {
		return nil, err
	}
	return t, nil
}

// Node returns the node with the given name, or nil.
func (t *Tree) Node(name string) *Node { return t.byName[name] }

// Subroutines returns all subroutine names, sorted.
func (t *Tree) Subroutines() []string {
	out := make([]string, 0, len(t.byName))
	for name := range t.byName {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TotalWeight returns the sum of all self weights, added in tree order
// from the root so repeated calls return the same bits.
func (t *Tree) TotalWeight() float64 { return subtreeWeight(t.Root) }

// Path returns the root-to-node subroutine names for the named node, or
// nil if unknown.
func (t *Tree) Path(name string) []string {
	n := t.byName[name]
	if n == nil {
		return nil
	}
	var rev []string
	for ; n != nil; n = n.parent {
		rev = append(rev, n.Name)
	}
	out := make([]string, len(rev))
	for i, s := range rev {
		out[len(rev)-1-i] = s
	}
	return out
}

// GCPU returns the true (noise-free) gCPU of the subroutine: the fraction
// of total self weight attributed to the subroutine or any node beneath it.
func (t *Tree) GCPU(name string) float64 {
	n := t.byName[name]
	if n == nil {
		return 0
	}
	total := t.TotalWeight()
	if total == 0 {
		return 0
	}
	return subtreeWeight(n) / total
}

func subtreeWeight(n *Node) float64 {
	w := n.SelfWeight
	for _, c := range n.Children {
		w += subtreeWeight(c)
	}
	return w
}

// GCPUAll returns the true gCPU of every subroutine.
func (t *Tree) GCPUAll() map[string]float64 {
	out := make(map[string]float64, len(t.byName))
	total := t.TotalWeight()
	if total == 0 {
		return out
	}
	var walk func(n *Node) float64
	walk = func(n *Node) float64 {
		w := n.SelfWeight
		for _, c := range n.Children {
			w += walk(c)
		}
		out[n.Name] = w / total
		return w
	}
	walk(t.Root)
	return out
}

// GCPUMetadata returns the true (noise-free) fraction of samples whose
// stack passes through a node annotated with exactly the given metadata:
// the total self weight at or beneath annotated nodes over the total.
func (t *Tree) GCPUMetadata(metadata string) float64 {
	total := t.TotalWeight()
	if total == 0 || metadata == "" {
		return 0
	}
	var annotated float64
	var walk func(n *Node, covered bool)
	walk = func(n *Node, covered bool) {
		covered = covered || n.Metadata == metadata
		if covered {
			annotated += n.SelfWeight
		}
		for _, c := range n.Children {
			walk(c, covered)
		}
	}
	walk(t.Root, false)
	return annotated / total
}

// SetMetadata annotates the named subroutine's frames, mirroring the
// production SetFrameMetadata API (paper §3).
func (t *Tree) SetMetadata(name, metadata string) error {
	n := t.byName[name]
	if n == nil {
		return fmt.Errorf("fleet: unknown subroutine %q", name)
	}
	n.Metadata = metadata
	return nil
}

// ScaleSelfWeight multiplies the named subroutine's self weight by factor,
// modeling a code change that makes the subroutine cheaper or more
// expensive. It returns an error for unknown subroutines or negative
// factors.
func (t *Tree) ScaleSelfWeight(name string, factor float64) error {
	n := t.byName[name]
	if n == nil {
		return fmt.Errorf("fleet: unknown subroutine %q", name)
	}
	if factor < 0 {
		return fmt.Errorf("fleet: negative factor %v", factor)
	}
	n.SelfWeight *= factor
	return nil
}

// ShiftWeight moves amount of self weight from one subroutine to another,
// modeling the code refactoring that causes cost-shift false positives
// (paper Figure 1(b)). The total cost is unchanged.
func (t *Tree) ShiftWeight(from, to string, amount float64) error {
	src := t.byName[from]
	dst := t.byName[to]
	if src == nil || dst == nil {
		return fmt.Errorf("fleet: unknown subroutine in shift %q -> %q", from, to)
	}
	if amount < 0 || amount > src.SelfWeight {
		return fmt.Errorf("fleet: cannot shift %v from %q (has %v)", amount, from, src.SelfWeight)
	}
	src.SelfWeight -= amount
	dst.SelfWeight += amount
	return nil
}

// AddSubroutine attaches a new leaf under the named parent, modeling a
// change that introduces a brand-new subroutine (relevant for the
// cost-shift detector's "domain did not exist before" rule).
func (t *Tree) AddSubroutine(parent, name, class string, selfWeight float64) error {
	p := t.byName[parent]
	if p == nil {
		return fmt.Errorf("fleet: unknown parent %q", parent)
	}
	if _, dup := t.byName[name]; dup {
		return fmt.Errorf("fleet: duplicate subroutine %q", name)
	}
	if selfWeight < 0 {
		return fmt.Errorf("fleet: negative self weight")
	}
	n := &Node{Name: name, Class: class, SelfWeight: selfWeight, parent: p}
	p.Children = append(p.Children, n)
	t.byName[name] = n
	return nil
}

// Clone returns a deep copy of the tree; scheduled changes are applied to
// clones so a service can expose both pre- and post-change trees.
func (t *Tree) Clone() *Tree {
	var copyNode func(n *Node) *Node
	copyNode = func(n *Node) *Node {
		c := &Node{Name: n.Name, Class: n.Class, SelfWeight: n.SelfWeight,
			Metadata: n.Metadata}
		for _, child := range n.Children {
			cc := copyNode(child)
			cc.parent = c
			c.Children = append(c.Children, cc)
		}
		return c
	}
	clone, err := NewTree(copyNode(t.Root))
	if err != nil {
		// Cloning a valid tree cannot fail.
		panic("fleet: clone failed: " + err.Error())
	}
	return clone
}

// Generate builds a random call tree with approximately numSubroutines
// nodes and the given maximum branching factor. Self weights follow a
// heavy-tailed (log-normal) distribution, reproducing the paper's
// observation that non-trivial subroutines have a small median gCPU
// (0.0083% in FrontFaaS) with a long tail. Every fifth subroutine is
// assigned to a class to exercise the class cost domain.
func Generate(rng *rand.Rand, numSubroutines, maxBranch int) *Tree {
	if numSubroutines < 1 {
		numSubroutines = 1
	}
	if maxBranch < 2 {
		maxBranch = 2
	}
	counter := 0
	newNode := func() *Node {
		counter++
		name := fmt.Sprintf("sub_%04d", counter)
		class := ""
		if counter%5 == 0 {
			class = fmt.Sprintf("Class%02d", counter/5%20)
			name = class + "::" + name
		}
		// Log-normal self weights: median 1, heavy upper tail.
		w := lognormal(rng, 0, 1.5)
		return &Node{Name: name, Class: class, SelfWeight: w}
	}
	root := newNode()
	root.SelfWeight *= 0.1 // roots burn little self time
	nodes := []*Node{root}
	for counter < numSubroutines {
		parent := nodes[rng.Intn(len(nodes))]
		if len(parent.Children) >= maxBranch {
			continue
		}
		n := newNode()
		n.parent = parent
		parent.Children = append(parent.Children, n)
		nodes = append(nodes, n)
	}
	t, err := NewTree(root)
	if err != nil {
		panic("fleet: generate failed: " + err.Error())
	}
	return t
}

func lognormal(rng *rand.Rand, mu, sigma float64) float64 {
	x := rng.NormFloat64()*sigma + mu
	if x > 20 {
		x = 20
	}
	if x < -20 {
		x = -20
	}
	return math.Exp(x)
}
