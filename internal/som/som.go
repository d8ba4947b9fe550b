// Package som implements a Self-Organizing Map (Kohonen 1990), the
// scalable O(n) clustering FBDetect's SOMDedup uses to merge regressions
// likely caused by the same change (paper §5.5.1).
//
// The grid size follows the paper's robust heuristic L = ceil(n^(1/4)),
// which consistently works across workloads without per-workload tuning.
package som

import (
	"fmt"
	"math"
	"math/rand"
)

// Map is a trained self-organizing map over feature vectors.
type Map struct {
	Rows, Cols int
	Dim        int
	Weights    [][]float64 // Rows*Cols weight vectors
}

// Options configures training.
type Options struct {
	// Rows and Cols set the grid size; if either is 0 the grid defaults to
	// L x L with L = ceil(n^(1/4)).
	Rows, Cols int
	// Seed seeds weight initialization and input shuffling.
	Seed int64
}

const (
	// epochs is the number of training passes over the data.
	epochs = 10
	// initialLearningRate decays linearly to near zero over training.
	initialLearningRate = 0.5
)

func (o Options) withDefaults(n int) Options {
	if o.Rows <= 0 || o.Cols <= 0 {
		l := GridSize(n)
		o.Rows, o.Cols = l, l
	}
	return o
}

// GridSize returns the paper's heuristic grid side ceil(n^(1/4)), at least 1.
func GridSize(n int) int {
	if n <= 1 {
		return 1
	}
	// Subtract a tiny epsilon before ceiling so exact fourth powers
	// (81^0.25 = 3.0000000000000004 in floating point) round correctly.
	return int(math.Ceil(math.Pow(float64(n), 0.25) - 1e-9))
}

// Train fits a SOM to the given feature vectors, which must all share the
// same dimension.
func Train(vectors [][]float64, opts Options) (*Map, error) {
	n := len(vectors)
	if n == 0 {
		return nil, fmt.Errorf("som: no input vectors")
	}
	dim := len(vectors[0])
	if dim == 0 {
		return nil, fmt.Errorf("som: zero-dimensional vectors")
	}
	for i, v := range vectors {
		if len(v) != dim {
			return nil, fmt.Errorf("som: vector %d has dim %d, want %d", i, len(v), dim)
		}
	}
	opts = opts.withDefaults(n)
	rng := rand.New(rand.NewSource(opts.Seed))

	m := &Map{Rows: opts.Rows, Cols: opts.Cols, Dim: dim}
	units := opts.Rows * opts.Cols
	m.Weights = make([][]float64, units)
	// Initialize weights by sampling input vectors with jitter, which
	// converges far faster than uniform-random initialization.
	for u := range m.Weights {
		src := vectors[rng.Intn(n)]
		w := make([]float64, dim)
		for d := range w {
			w[d] = src[d] + rng.NormFloat64()*1e-3
		}
		m.Weights[u] = w
	}

	initialRadius := float64(maxInt(opts.Rows, opts.Cols)) / 2
	totalSteps := epochs * n
	step := 0
	order := rng.Perm(n)
	for epoch := 0; epoch < epochs; epoch++ {
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, vi := range order {
			frac := float64(step) / float64(totalSteps)
			lr := initialLearningRate * (1 - frac)
			radius := 1 + initialRadius*(1-frac)
			m.update(vectors[vi], lr, radius)
			step++
		}
	}
	return m, nil
}

func (m *Map) update(v []float64, lr, radius float64) {
	br, bc := m.bmu(v)
	r2 := radius * radius
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			dr, dc := float64(r-br), float64(c-bc)
			d2 := dr*dr + dc*dc
			if d2 > r2 {
				continue
			}
			influence := math.Exp(-d2 / (2 * r2))
			w := m.Weights[r*m.Cols+c]
			for d := range w {
				w[d] += lr * influence * (v[d] - w[d])
			}
		}
	}
}

// bmu returns the best-matching unit (grid cell) for v.
func (m *Map) bmu(v []float64) (row, col int) {
	best := math.Inf(1)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			if d := sqDist(m.Weights[r*m.Cols+c], v); d < best {
				best, row, col = d, r, c
			}
		}
	}
	return row, col
}

// Assign maps each vector to its best-matching unit and returns a cluster
// id per vector (the flattened grid index of the unit). Vectors mapping to
// the same unit are considered duplicates by SOMDedup.
func (m *Map) Assign(vectors [][]float64) []int {
	out := make([]int, len(vectors))
	for i, v := range vectors {
		r, c := m.bmu(v)
		out[i] = r*m.Cols + c
	}
	return out
}

// Cluster trains a SOM on the vectors and groups them by best-matching
// unit, returning the groups as index lists. It is the one-call API
// SOMDedup uses.
func Cluster(vectors [][]float64, opts Options) ([][]int, error) {
	m, err := Train(vectors, opts)
	if err != nil {
		return nil, err
	}
	assign := m.Assign(vectors)
	byUnit := map[int][]int{}
	for i, u := range assign {
		byUnit[u] = append(byUnit[u], i)
	}
	// Deterministic order: by smallest member index.
	groups := make([][]int, 0, len(byUnit))
	for _, g := range byUnit {
		groups = append(groups, g)
	}
	sortGroups(groups)
	return groups, nil
}

func sortGroups(groups [][]int) {
	for i := 1; i < len(groups); i++ {
		for j := i; j > 0 && groups[j][0] < groups[j-1][0]; j-- {
			groups[j], groups[j-1] = groups[j-1], groups[j]
		}
	}
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
