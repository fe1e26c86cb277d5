package dist

import (
	"slices"
	"sort"
	"testing"
)

// FuzzWindowSorted drives random Add/Sampler sequences through a Window and
// checks the in-place sorted mirror against a fresh sort of the contents.
// The first byte picks the capacity (1–16, so eviction and capacity 1 are
// common); each later byte is one operation: a set high bit calls Sampler(),
// otherwise the low six bits are added as a value (0–63, so duplicates are
// common). The first Sampler() call is where the mirror switches from
// build-on-first-use to in-place splicing, so the corpus places it early,
// late and not at all.
//
// Checked after every operation:
//   - Sampler() returns exactly sort.Ints(Values());
//   - once built, the mirror itself stays equal to the sorted contents;
//   - a snapshot held from the last Sampler() call does not change while
//     Adds happen, until the next Sampler() call.
func FuzzWindowSorted(f *testing.F) {
	f.Add([]byte{0x00, 1, 1, 0x80, 1, 2, 1, 0x80})           // capacity 1, duplicates
	f.Add([]byte{0x03, 5, 9, 2, 0x80, 7, 7, 1, 30, 0x80, 5}) // build, then splice
	f.Add([]byte{0x07, 3, 3, 3, 3, 3, 3, 3, 3, 3, 0x80, 3})  // all duplicates
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		w := NewWindow(1 + int(data[0])%16)
		var held *Sampler
		var snap []int
		for i, op := range data[1:] {
			if op&0x80 != 0 {
				held = w.Sampler()
				want := w.Values()
				sort.Ints(want)
				if !slices.Equal(held.sorted, want) {
					t.Fatalf("op %d: Sampler() = %v, want %v", i, held.sorted, want)
				}
				snap = slices.Clone(held.sorted)
				continue
			}
			w.Add(int(op & 0x3f))
			if w.sorted != nil {
				want := w.Values()
				sort.Ints(want)
				if !slices.Equal(w.sorted, want) {
					t.Fatalf("op %d: mirror %v, want %v", i, w.sorted, want)
				}
			}
			if held != nil && !slices.Equal(held.sorted, snap) {
				t.Fatalf("op %d: held snapshot changed to %v from %v before the next Sampler()", i, held.sorted, snap)
			}
		}
	})
}
