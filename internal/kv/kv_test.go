package kv

import (
	"strings"
	"testing"
	"testing/quick"
)

// mustAllocate allocates or fails the test.
func mustAllocate(t testing.TB, p *Pool, id int64, tokens int) Handle {
	t.Helper()
	h := p.Allocate(id, tokens)
	if h == 0 {
		t.Fatalf("Allocate(%d, %d tokens) failed", id, tokens)
	}
	return h
}

// live counts the pool's live allocations.
func live(p *Pool) int { return len(p.slab) - len(p.freeSlots) }

// mustPanic runs f and fails the test unless it panics with a message
// containing want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one containing %q", want)
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want one containing %q", r, want)
		}
	}()
	f()
}

func TestAllocateFree(t *testing.T) {
	p := NewPool(100, 1)
	h := p.Allocate(1, 40)
	if h == 0 {
		t.Fatal("allocate failed")
	}
	if p.UsedTokens() != 40 || p.FreeTokens() != 60 {
		t.Fatalf("used=%d free=%d", p.UsedTokens(), p.FreeTokens())
	}
	if got := p.Free(h, 1); got != 40 {
		t.Fatalf("freed %d", got)
	}
	if p.UsedTokens() != 0 || p.FreeTokens() != 100 {
		t.Fatal("free did not restore pool")
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocateRejectsWhenFull(t *testing.T) {
	p := NewPool(100, 1)
	mustAllocate(t, p, 1, 100)
	if p.Allocate(2, 1) != 0 {
		t.Fatal("allocation beyond capacity succeeded")
	}
	if p.UsedTokens() != 100 {
		t.Fatal("failed allocation mutated pool")
	}
	if live(p) != 1 || len(p.slab) != 1 {
		t.Fatalf("failed allocation claimed a slot: live=%d slab=%d", live(p), len(p.slab))
	}
}

func TestExtend(t *testing.T) {
	p := NewPool(100, 1)
	h := mustAllocate(t, p, 1, 10)
	if !p.Extend(h, 1, 5) {
		t.Fatal("extend failed")
	}
	if p.UsedTokens() != 15 {
		t.Fatalf("allocated = %d", p.UsedTokens())
	}
	if p.Free(h, 1) != 15 {
		t.Fatal("free returned wrong size")
	}
}

func TestExtendRejectsWhenFull(t *testing.T) {
	p := NewPool(10, 1)
	h := mustAllocate(t, p, 1, 10)
	if p.Extend(h, 1, 1) {
		t.Fatal("extend beyond capacity succeeded")
	}
	if p.UsedTokens() != 10 || p.Free(h, 1) != 10 {
		t.Fatal("failed extend mutated allocation")
	}
}

func TestBlockFragmentation(t *testing.T) {
	p := NewPool(160, 16)
	mustAllocate(t, p, 1, 17) // needs 2 blocks = 32 physical
	if p.UsedTokens() != 17 {
		t.Fatalf("logical = %d", p.UsedTokens())
	}
	if p.PhysicalUsedTokens() != 32 {
		t.Fatalf("physical = %d", p.PhysicalUsedTokens())
	}
	if p.FragmentationWaste() != 15 {
		t.Fatalf("waste = %d", p.FragmentationWaste())
	}
}

func TestBlockExtendWithinBlock(t *testing.T) {
	p := NewPool(160, 16)
	h := mustAllocate(t, p, 1, 10)
	if p.PhysicalUsedTokens() != 16 {
		t.Fatal("one block expected")
	}
	// Extending within the same block consumes no new physical space.
	if !p.Extend(h, 1, 6) {
		t.Fatal("extend failed")
	}
	if p.PhysicalUsedTokens() != 16 {
		t.Fatalf("physical grew to %d inside a block", p.PhysicalUsedTokens())
	}
	if !p.Extend(h, 1, 1) {
		t.Fatal("extend crossing block failed")
	}
	if p.PhysicalUsedTokens() != 32 {
		t.Fatalf("physical = %d after crossing block", p.PhysicalUsedTokens())
	}
}

func TestTokenGranularityNoWaste(t *testing.T) {
	p := NewPool(1000, 1)
	mustAllocate(t, p, 1, 123)
	mustAllocate(t, p, 2, 456)
	if p.FragmentationWaste() != 0 {
		t.Fatalf("token-granular pool wasted %d", p.FragmentationWaste())
	}
}

func TestCanAllocateAndExtend(t *testing.T) {
	p := NewPool(32, 16)
	if !p.CanAllocate(32) {
		t.Fatal("CanAllocate(32) = false")
	}
	h := mustAllocate(t, p, 1, 20) // 2 blocks
	if p.CanAllocate(1) {
		t.Fatal("no free blocks, CanAllocate should be false")
	}
	if !p.Extend(h, 1, 12) { // stays in 2 blocks
		t.Fatal("extend within block failed")
	}
	if p.Extend(h, 1, 1) { // needs block 3
		t.Fatal("extend beyond capacity succeeded")
	}
	if p.UsedTokens() != 32 {
		t.Fatalf("used = %d, want 32", p.UsedTokens())
	}
}

func TestDoubleFreePanics(t *testing.T) {
	p := NewPool(100, 1)
	h := mustAllocate(t, p, 1, 10)
	p.Free(h, 1)
	mustPanic(t, "freed handle", func() { p.Free(h, 1) })
}

func TestExtendUnknownPanics(t *testing.T) {
	p := NewPool(100, 1)
	mustPanic(t, "unknown handle", func() { p.Extend(7, 7, 1) })
	mustPanic(t, "unknown handle", func() { p.Extend(0, 7, 1) })
	mustPanic(t, "unknown handle", func() { p.Extend(-1, 7, 1) })
}

func TestCapacityRoundsToBlocks(t *testing.T) {
	p := NewPool(100, 16) // 6 blocks = 96 tokens
	if p.CapacityTokens() != 96 {
		t.Fatalf("capacity = %d, want 96", p.CapacityTokens())
	}
}

func TestPeakTracking(t *testing.T) {
	p := NewPool(100, 1)
	h := mustAllocate(t, p, 1, 60)
	mustAllocate(t, p, 2, 30)
	p.Free(h, 1)
	if p.PeakUsedTokens() != 90 {
		t.Fatalf("peak = %d", p.PeakUsedTokens())
	}
}

func TestUtilization(t *testing.T) {
	p := NewPool(200, 1)
	mustAllocate(t, p, 1, 50)
	if got := p.Utilization(); got != 0.25 {
		t.Fatalf("utilization = %v", got)
	}
}

// TestLiveHandles counts live allocations through the slab: two
// allocations hold two distinct handles, and freeing one leaves the other
// usable and the freed one dead.
func TestLiveHandles(t *testing.T) {
	p := NewPool(100, 1)
	h1 := mustAllocate(t, p, 1, 10)
	h2 := mustAllocate(t, p, 2, 10)
	if live(p) != 2 || h1 == h2 {
		t.Fatalf("live = %d, handles %d and %d", live(p), h1, h2)
	}
	p.Free(h1, 1)
	if live(p) != 1 {
		t.Fatal("live bookkeeping wrong after free")
	}
	if !p.Extend(h2, 2, 1) {
		t.Fatal("surviving allocation unusable after a free")
	}
	mustPanic(t, "freed handle", func() { p.Extend(h1, 1, 1) })
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSlotReuse pins the free stack: freed slots are reused most recent
// first and the slab does not grow while a freed slot is available.
func TestSlotReuse(t *testing.T) {
	p := NewPool(100, 1)
	h1 := mustAllocate(t, p, 1, 10)
	h2 := mustAllocate(t, p, 2, 10)
	mustAllocate(t, p, 3, 10)
	p.Free(h2, 2)
	p.Free(h1, 1)
	if h := mustAllocate(t, p, 4, 10); h != h1 {
		t.Fatalf("first reuse got handle %d, want the last freed %d", h, h1)
	}
	if h := mustAllocate(t, p, 5, 10); h != h2 {
		t.Fatalf("second reuse got handle %d, want %d", h, h2)
	}
	if len(p.slab) != 3 {
		t.Fatalf("slab grew to %d with free slots available", len(p.slab))
	}
	mustAllocate(t, p, 6, 10)
	if len(p.slab) != 4 || live(p) != 4 {
		t.Fatalf("slab=%d live=%d, want 4/4", len(p.slab), live(p))
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestHandleUseAfterFreePanics: every handle operation on a freed handle
// panics instead of touching the slot.
func TestHandleUseAfterFreePanics(t *testing.T) {
	p := NewPool(100, 1)
	mustAllocate(t, p, 1, 10) // keeps the slab non-empty around the freed slot
	h := mustAllocate(t, p, 2, 10)
	p.Free(h, 2)
	mustPanic(t, "freed handle", func() { p.Extend(h, 2, 1) })
	mustPanic(t, "freed handle", func() { p.BlocksNeededToExtendByOne(h, 2) })
	mustPanic(t, "freed handle", func() { p.Free(h, 2) })
	if p.UsedTokens() != 10 {
		t.Fatalf("panicking calls changed usage to %d", p.UsedTokens())
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestHandleOwnerMismatchPanics: a handle presented with another request's
// id panics, including a stale handle whose slot a new request reuses.
func TestHandleOwnerMismatchPanics(t *testing.T) {
	p := NewPool(100, 1)
	h := mustAllocate(t, p, 1, 10)
	mustPanic(t, "owned by request 1", func() { p.Extend(h, 2, 1) })
	mustPanic(t, "owned by request 1", func() { p.BlocksNeededToExtendByOne(h, 2) })
	mustPanic(t, "owned by request 1", func() { p.Free(h, 2) })

	p.Free(h, 1)
	if reused := mustAllocate(t, p, 3, 20); reused != h {
		t.Fatalf("slot not reused: got %d, want %d", reused, h)
	}
	mustPanic(t, "owned by request 3", func() { p.Extend(h, 1, 1) })
	mustPanic(t, "owned by request 3", func() { p.Free(h, 1) })
	if p.UsedTokens() != 20 {
		t.Fatalf("stale handle changed usage to %d", p.UsedTokens())
	}
}

// TestForeignHandlePanics: a handle issued by another pool panics, whether
// it lands on another request's record or outside this pool's slab.
func TestForeignHandlePanics(t *testing.T) {
	a, b := NewPool(100, 1), NewPool(100, 1)
	ha1 := mustAllocate(t, a, 1, 10)
	ha2 := mustAllocate(t, a, 2, 10)
	mustAllocate(t, b, 9, 10)
	mustPanic(t, "owned by request 9", func() { b.Extend(ha1, 1, 1) })
	mustPanic(t, "unknown handle", func() { b.Free(ha2, 2) })
	mustPanic(t, "unknown handle", func() { b.BlocksNeededToExtendByOne(ha2, 2) })
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckInvariantsSlots corrupts the slot bookkeeping each way the free
// stack can go wrong and expects CheckInvariants to report it.
func TestCheckInvariantsSlots(t *testing.T) {
	build := func() (*Pool, Handle) {
		p := NewPool(100, 1)
		mustAllocate(t, p, 1, 10)
		h := mustAllocate(t, p, 2, 10)
		mustAllocate(t, p, 3, 10)
		p.Free(h, 2)
		if err := p.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return p, h
	}
	for _, tc := range []struct {
		name    string
		corrupt func(p *Pool, freed Handle)
		want    string
	}{
		{"slot stacked twice", func(p *Pool, freed Handle) {
			p.freeSlots = append(p.freeSlots, int32(freed-1))
		}, "twice"},
		{"live slot stacked", func(p *Pool, _ Handle) {
			p.freeSlots = append(p.freeSlots, 0)
		}, "live slot"},
		{"slot outside slab", func(p *Pool, _ Handle) {
			p.freeSlots = append(p.freeSlots, int32(len(p.slab)))
		}, "outside the slab"},
		{"slot lost", func(p *Pool, _ Handle) {
			p.freeSlots = p.freeSlots[:0]
		}, "slot leak"},
		{"live slot lost", func(p *Pool, _ Handle) {
			p.slab[0] = alloc{}
		}, "slot leak"},
		{"freed slot keeps tokens", func(p *Pool, freed Handle) {
			p.slab[freed-1].tokens = 5
		}, "freed slot"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, freed := build()
			tc.corrupt(p, freed)
			err := p.CheckInvariants()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CheckInvariants = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestNewPoolAllocs: the slab starts empty, so building a pool allocates
// only the Pool itself.
func TestNewPoolAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { _ = NewPool(1000, 1) }); n != 1 {
		t.Fatalf("NewPool allocates %v times, want 1", n)
	}
	p := NewPool(1000, 1)
	if p.slab != nil || p.freeSlots != nil {
		t.Fatal("new pool pre-sized its slab")
	}
}

func TestFreeBlocksAndExtendNeed(t *testing.T) {
	p := NewPool(64, 16) // 4 blocks
	if p.FreeBlocks() != 4 {
		t.Fatalf("free blocks = %d", p.FreeBlocks())
	}
	h := mustAllocate(t, p, 1, 15)
	if p.FreeBlocks() != 3 {
		t.Fatalf("free blocks after alloc = %d", p.FreeBlocks())
	}
	// 15 → 16 stays within the block; 16 → 17 needs one more.
	if p.BlocksNeededToExtendByOne(h, 1) != 0 {
		t.Fatal("extend 15→16 should need 0 blocks")
	}
	p.Extend(h, 1, 1)
	if p.BlocksNeededToExtendByOne(h, 1) != 1 {
		t.Fatal("extend 16→17 should need 1 block")
	}
}

func TestBlocksNeededUnknownPanics(t *testing.T) {
	mustPanic(t, "unknown handle", func() { NewPool(16, 1).BlocksNeededToExtendByOne(42, 42) })
}

func TestQuickConservation(t *testing.T) {
	// Property: after any sequence of alloc/extend/free operations, the
	// pool's accounting is self-consistent and freeing everything restores
	// full capacity.
	type op struct {
		Kind   uint8
		ID     uint8
		Tokens uint8
	}
	f := func(ops []op, blockPow uint8) bool {
		blockSize := 1 << (blockPow % 5) // 1..16
		p := NewPool(4096, blockSize)
		live := map[int64]Handle{}
		for _, o := range ops {
			id := int64(o.ID % 8)
			tokens := int(o.Tokens%64) + 1
			h, held := live[id]
			switch o.Kind % 3 {
			case 0:
				if !held {
					if h := p.Allocate(id, tokens); h != 0 {
						live[id] = h
					}
				}
			case 1:
				if held {
					p.Extend(h, id, tokens)
				}
			case 2:
				if held {
					p.Free(h, id)
					delete(live, id)
				}
			}
			if err := p.CheckInvariants(); err != nil {
				return false
			}
		}
		for id, h := range live {
			p.Free(h, id)
		}
		return p.UsedTokens() == 0 && p.FreeTokens() == p.CapacityTokens() &&
			p.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAllocateFree(b *testing.B) {
	p := NewPool(1_000_000, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := int64(i % 1000)
		p.Free(p.Allocate(id, 100), id)
	}
}
