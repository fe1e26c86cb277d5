package core

import (
	"slices"
	"sort"

	"github.com/lightllm-go/lightllm/internal/request"
)

// PeakEstimator computes the batch's future peak memory M* (Equations 2–4)
// incrementally, replacing the clone+re-sort+scan of FutureRequiredMemory in
// the per-candidate admission loop.
//
// It maintains the batch entries sorted by remaining length descending,
// together with three running aggregates over that order (1-indexed i):
//
//	prefC[i]    = Σ_{j≤i} Current_j           (prefix occupancy)
//	M_i         = prefC[i] + Remaining_i × i  (memory when entry i finishes)
//	prefMaxM[i] = max_{j≤i} M_j
//	sufMaxMR[i] = max_{j≥i} (M_j + Remaining_j)
//
// With those, the peak of the batch plus one hypothetical candidate is a
// three-term maximum around the candidate's insertion rank p: entries ahead
// of it are untouched (prefMaxM), the candidate's own completion point is
// prefC[p-1] + C + R×p, and every entry behind it gains the candidate's
// Current and one extra step (sufMaxMR + C). PeakWith is therefore one
// O(log B) binary search plus O(1) arithmetic — the whole admission loop
// drops from O(Q·B log B) to O((B+Q) log B) per scheduling step.
//
// Push buffers entries unsorted until the first query, which sorts once
// (O(B log B) — the per-step batch rebuild); a Push after a query splices
// into the sorted order and repairs the aggregates in O(B) word moves,
// which only happens once per *admitted* request. All buffers are reused
// across Reset, so a warm estimator performs zero heap allocations.
//
// Results are bit-identical to FutureRequiredMemory (the reference
// implementation, kept for cross-checking): M* depends only on the entry
// multiset, so tie order between equal remaining lengths cannot change it.
type PeakEstimator struct {
	ent      []Entry
	prefC    []int
	prefMaxM []int
	sufMaxMR []int
	unsorted bool // entries appended since the last sort
}

// sentinel for empty suffix maxima; far below any reachable M value but far
// from overflow when a candidate's Current is added on top.
const negInfPeak = -1 << 60

// Reset empties the estimator, retaining capacity.
func (pe *PeakEstimator) Reset() {
	pe.ent = pe.ent[:0]
	pe.unsorted = false
}

// Len returns the number of entries pushed since the last Reset.
func (pe *PeakEstimator) Len() int { return len(pe.ent) }

// Push adds an entry to the batch. Negative remaining lengths are clamped
// to zero exactly like the reference implementation (a finished-this-step
// request holds memory but grows no further).
func (pe *PeakEstimator) Push(e Entry) {
	if e.Remaining < 0 {
		e.Remaining = 0
	}
	if pe.unsorted || len(pe.ent) == 0 {
		// Build phase: defer sorting to the first query.
		pe.ent = append(pe.ent, e)
		pe.unsorted = true
		return
	}
	// Incremental phase: splice into the descending-remaining order and
	// repair the aggregates from the insertion rank.
	p := sort.Search(len(pe.ent), func(i int) bool { return pe.ent[i].Remaining < e.Remaining })
	pe.ent = append(pe.ent, Entry{})
	copy(pe.ent[p+1:], pe.ent[p:])
	pe.ent[p] = e
	pe.rebuildFrom(p)
}

// flush sorts buffered entries and rebuilds the aggregates.
func (pe *PeakEstimator) flush() {
	if !pe.unsorted {
		return
	}
	// slices.SortFunc, unlike sort.Slice, performs no allocations — a
	// requirement of the zero-allocation admission hot path.
	slices.SortFunc(pe.ent, func(a, b Entry) int { return b.Remaining - a.Remaining })
	pe.rebuildFrom(0)
	pe.unsorted = false
}

// rebuildFrom recomputes prefix aggregates for ranks ≥ p and the suffix
// maxima over the whole batch.
func (pe *PeakEstimator) rebuildFrom(p int) {
	n := len(pe.ent)
	if cap(pe.prefC) < n {
		// Growing discards the old aggregate prefixes; recompute everything.
		pe.prefC = make([]int, n, 2*n)
		pe.prefMaxM = make([]int, n, 2*n)
		pe.sufMaxMR = make([]int, n+1, 2*n+1)
		p = 0
	}
	pe.prefC = pe.prefC[:n]
	pe.prefMaxM = pe.prefMaxM[:n]
	pe.sufMaxMR = pe.sufMaxMR[:n+1]
	for i := p; i < n; i++ {
		c, mx := 0, negInfPeak
		if i > 0 {
			c, mx = pe.prefC[i-1], pe.prefMaxM[i-1]
		}
		pe.prefC[i] = c + pe.ent[i].Current
		if m := pe.prefC[i] + pe.ent[i].Remaining*(i+1); m > mx {
			mx = m
		}
		pe.prefMaxM[i] = mx
	}
	pe.sufMaxMR[n] = negInfPeak
	for i := n - 1; i >= 0; i-- {
		m := pe.prefC[i] + pe.ent[i].Remaining*(i+1)
		v := m + pe.ent[i].Remaining
		if pe.sufMaxMR[i+1] > v {
			v = pe.sufMaxMR[i+1]
		}
		pe.sufMaxMR[i] = v
	}
}

// Peak returns M* of the pushed entries; 0 when empty.
func (pe *PeakEstimator) Peak() int {
	pe.flush()
	n := len(pe.ent)
	if n == 0 || pe.prefMaxM[n-1] < 0 {
		return 0
	}
	return pe.prefMaxM[n-1]
}

// PeakWith returns M* of the pushed entries plus one hypothetical candidate,
// without mutating the estimator. It is bit-identical to
// FutureRequiredMemory over the same entries plus the candidate.
func (pe *PeakEstimator) PeakWith(cand Entry) int {
	if cand.Remaining < 0 {
		cand.Remaining = 0
	}
	pe.flush()
	n := len(pe.ent)
	p := sort.Search(n, func(i int) bool { return pe.ent[i].Remaining < cand.Remaining })

	// The candidate's own completion point at rank p+1.
	prefBefore := 0
	peak := negInfPeak
	if p > 0 {
		prefBefore = pe.prefC[p-1]
		peak = pe.prefMaxM[p-1] // ranks ahead of the candidate: unchanged
	}
	if m := prefBefore + cand.Current + cand.Remaining*(p+1); m > peak {
		peak = m
	}
	// Ranks behind the candidate: each gains Current and one extra step.
	if p < n {
		if m := pe.sufMaxMR[p] + cand.Current; m > peak {
			peak = m
		}
	}
	if peak < 0 {
		return 0
	}
	return peak
}

// PushTrue pushes a request's ground-truth memory trajectory — the oracle's
// and the metrics layer's view of the batch.
func (pe *PeakEstimator) PushTrue(r *request.Request) {
	pe.Push(Entry{Current: r.KVLanded(), Remaining: r.RemainingTrue() + r.PrefillRemaining()})
}
