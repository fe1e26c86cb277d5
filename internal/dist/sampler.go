package dist

import (
	"math"
	"sort"

	"github.com/lightllm-go/lightllm/internal/rng"
)

// Sampler answers distribution queries over a snapshot of a Window's
// contents. Obtain one via Window.Sampler(); the zero value behaves as a
// sampler over an empty window. All queries are O(log n) or better against
// the cached sorted array and perform no heap allocations.
type Sampler struct {
	sorted []int // window contents, ascending: the empirical CDF
	gen    uint64
	valid  bool
}

// rebuild refreshes the snapshot from the window's sorted mirror: an O(n)
// copy into the reused buffer, no sort.
func (s *Sampler) rebuild(w *Window) {
	if s.sorted == nil {
		s.sorted = make([]int, 0, len(w.buf))
	}
	s.sorted = append(s.sorted[:0], w.sorted...)
	s.gen = w.gen
	s.valid = true
}

// Len returns the number of observations in the snapshot.
func (s *Sampler) Len() int { return len(s.sorted) }

// Max returns the largest observation, or 0 for an empty snapshot.
func (s *Sampler) Max() int {
	if len(s.sorted) == 0 {
		return 0
	}
	return s.sorted[len(s.sorted)-1]
}

// Sample draws uniformly from the window — an i.i.d. draw from the
// empirical P(l). It returns 0 for an empty snapshot.
func (s *Sampler) Sample(r *rng.RNG) int {
	if len(s.sorted) == 0 {
		return 0
	}
	return s.sorted[r.Intn(len(s.sorted))]
}

// Quantile returns the smallest observed value whose cumulative probability
// reaches q (clamped to [0, 1]), or 0 for an empty snapshot.
func (s *Sampler) Quantile(q float64) int {
	if len(s.sorted) == 0 {
		return 0
	}
	return s.sorted[quantileIndex(q, len(s.sorted))]
}

// SampleGreater draws from the conditional distribution P(l | l > greater) —
// Equation 1's dynamic update for a request that has already generated
// `greater` tokens without stopping. ok is false when the window holds no
// observation above the conditioning point (the scheduler then falls back
// to the request's max_new_tokens cap).
func (s *Sampler) SampleGreater(r *rng.RNG, greater int) (v int, ok bool) {
	i := sort.SearchInts(s.sorted, greater+1) // first observation > greater
	if i == len(s.sorted) {
		return 0, false
	}
	return s.sorted[i+r.Intn(len(s.sorted)-i)], true
}

// QuantileGreater returns the q-quantile of the conditional distribution
// P(l | l > greater); ok is false when no probability mass lies above the
// conditioning point.
func (s *Sampler) QuantileGreater(q float64, greater int) (v int, ok bool) {
	i := sort.SearchInts(s.sorted, greater+1)
	m := len(s.sorted) - i
	if m == 0 {
		return 0, false
	}
	return s.sorted[i+quantileIndex(q, m)], true
}

// quantileIndex maps quantile q over n sorted values to the smallest index
// whose CDF (index+1)/n reaches q, clamped to a valid index. n must be > 0.
func quantileIndex(q float64, n int) int {
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}
