// Package dist maintains the Past-Future scheduler's "past": a sliding
// window of recently observed output lengths (paper §3.2, Equation 1) and a
// sampler over its empirical distribution.
//
// # Cached-CDF design
//
// The window is a fixed-capacity ring buffer: once it is full the oldest
// observation is evicted, so the distribution tracks workload drift (the
// paper's API-trace observation). Alongside the ring the window keeps a
// sorted mirror of its contents, built the same way core.PeakEstimator
// builds its order: while the mirror has never been asked for, Add only
// writes the ring, and the first Sampler() call sorts the contents once.
// From then on Add keeps the mirror sorted in place — the evicted value is
// found by binary search and the new value inserted by binary search, with
// one copy shifting the values between the two slots — so the mirror never
// needs a full re-sort. Deferring the build keeps bulk loading (a seeded
// history, a cold window filling up) at O(1) per Add.
//
// Sampler() hands out a snapshot of the mirror. The window carries a
// generation counter that increments on every Add, and the snapshot is
// refreshed — an O(n) copy of the already-sorted mirror — only when the
// generation has moved since the last call. The admission loop calls
// Sampler() once per scheduling step (and once per service class in
// per-class mode) while the window mutates only when a request finishes,
// so in steady state most steps reuse the snapshot and pay nothing. A held
// snapshot never changes under its holder: Add touches only the mirror,
// and the snapshot moves only at the next Sampler() call.
//
// A sorted array IS the empirical CDF: the value at rank i has cumulative
// probability (i+1)/n. Every query therefore runs in O(log n) binary search
// (or O(1) indexing) over the snapshot:
//
//   - Sample draws uniformly over the window (an i.i.d. draw from P(l)),
//   - Quantile returns the smallest value whose CDF reaches q,
//   - SampleGreater / QuantileGreater condition on l > l_t by binary
//     searching the suffix with values above l_t (Equation 1's dynamic
//     update P(l | l > l_t)); both report ok=false when no probability mass
//     remains above the conditioning point,
//   - Max returns the window's support maximum.
//
// The mirror and the snapshot grow to the window's capacity once and are
// reused from then on, so a warm Window/Sampler pair performs zero heap
// allocations — a requirement of the engine's allocation-free scheduling
// hot path.
package dist

import "sort"

// Window is a fixed-capacity sliding window of observed output lengths with
// a sorted mirror kept current in place and a generation-cached Sampler.
// Not safe for concurrent use.
type Window struct {
	buf  []int // ring buffer
	head int   // index of the oldest observation
	n    int   // observations currently held
	gen  uint64

	// sorted mirrors the ring's contents in ascending order once built by
	// the first Sampler() call; until then it is nil and Add skips it.
	sorted []int

	samp     Sampler
	rebuilds int // sampler rebuild count (cache-effectiveness tests)
}

// NewWindow creates a window holding at most capacity observations.
// It panics if capacity is not positive.
func NewWindow(capacity int) *Window {
	if capacity <= 0 {
		panic("dist: window capacity must be positive")
	}
	return &Window{buf: make([]int, capacity)}
}

// Add records one observation, evicting the oldest when the window is full,
// and invalidates the cached sampler. Once the sorted mirror exists it is
// updated in place: O(log n) searches plus one copy of the values between
// the evicted and the inserted slot.
func (w *Window) Add(v int) {
	if w.n < len(w.buf) {
		w.buf[(w.head+w.n)%len(w.buf)] = v
		w.n++
		if w.sorted != nil {
			w.insertSorted(v)
		}
	} else {
		old := w.buf[w.head]
		w.buf[w.head] = v
		w.head = (w.head + 1) % len(w.buf)
		if w.sorted != nil {
			w.replaceSorted(old, v)
		}
	}
	w.gen++
}

// insertSorted inserts v into the mirror at its ascending rank.
// The mirror was allocated at capacity, so the append never reallocates.
func (w *Window) insertSorted(v int) {
	s := append(w.sorted, 0)
	j := sort.SearchInts(s[:len(s)-1], v)
	copy(s[j+1:], s[j:len(s)-1])
	s[j] = v
	w.sorted = s
}

// replaceSorted removes one occurrence of old from the mirror and inserts
// v, shifting only the values between the two slots.
func (w *Window) replaceSorted(old, v int) {
	s := w.sorted
	i := sort.SearchInts(s, old) // s[i] == old: old is in the window
	j := sort.SearchInts(s, v)
	if j > i {
		// v ranks after old's slot: shift s[i+1:j] down one.
		copy(s[i:j-1], s[i+1:j])
		s[j-1] = v
	} else {
		// v ranks at or before old's slot: shift s[j:i] up one.
		copy(s[j+1:i+1], s[j:i])
		s[j] = v
	}
}

// buildSorted allocates the mirror at the window's capacity and fills it
// from the ring with one sort: the first Sampler() call's cost, paid once
// per window. NewWindow does not allocate it, so windows that are built but
// never sampled, and bulk loads before the first sample, cost nothing here.
func (w *Window) buildSorted() {
	w.sorted = make([]int, w.n, len(w.buf))
	for i := 0; i < w.n; i++ {
		w.sorted[i] = w.buf[(w.head+i)%len(w.buf)]
	}
	sort.Ints(w.sorted)
}

// Len returns the number of observations currently held.
func (w *Window) Len() int { return w.n }

// Cap returns the window capacity.
func (w *Window) Cap() int { return len(w.buf) }

// Generation returns the mutation counter; it increments on every Add.
func (w *Window) Generation() uint64 { return w.gen }

// Values returns the observations in arrival order (oldest first) as a
// fresh slice. Observation/test helper; the scheduling hot path uses the
// cached Sampler instead.
func (w *Window) Values() []int {
	out := make([]int, w.n)
	for i := 0; i < w.n; i++ {
		out[i] = w.buf[(w.head+i)%len(w.buf)]
	}
	return out
}

// Sampler returns the sampler over the window's current contents, copying
// the sorted mirror only if the window has mutated since the last call (the
// first call builds the mirror). The returned pointer aliases the window's
// cache: its contents stay fixed until the next Sampler() call that follows
// a mutation, which is exactly the per-scheduling-step usage pattern of the
// admission loop.
func (w *Window) Sampler() *Sampler {
	if w.sorted == nil {
		w.buildSorted()
	}
	if !w.samp.valid || w.samp.gen != w.gen {
		w.samp.rebuild(w)
		w.rebuilds++
	}
	return &w.samp
}
