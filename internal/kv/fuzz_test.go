package kv

import "testing"

// poolModelEntry is the model's view of one live allocation.
type poolModelEntry struct {
	h      Handle
	tokens int      // footprint, shared prefix blocks included
	hashes []uint64 // prefix blocks the allocation pins
}

// FuzzPoolOps drives random Allocate, AllocatePrefixed, Extend and Free
// sequences through a Pool and checks it against a map-based model of the
// tokens each request holds, the logical total and its peak.
//
// The first byte configures the pool (128 token slots): bits 0–1 pick the
// block size (1, 2, 4, 8); bit 2 enables the prefix cache; bits 3–4 pick
// the offload store (none, one block, unbounded); bit 5 picks the prefix
// block size (2 or 4 pool blocks). Each later pair of bytes is one
// operation on request id op&7: op>>6 selects Allocate, AllocatePrefixed
// (Allocate without the cache), Extend or Free, and (op>>3)&7 is the
// restore budget. For AllocatePrefixed the argument byte picks one of four
// hash chains (arg&3), how many of its leading blocks to cover
// ((arg>>2)&3) and the private tail (arg>>4), so requests on one chain
// share blocks; for Allocate and Extend it is the token count.
//
// Checked after every operation:
//   - CheckInvariants passes (slab, free stack, blocks, refcounts);
//   - UsedTokens is the model's private tokens plus one copy of each
//     pinned prefix block, and PeakUsedTokens is the model's peak;
//   - a plain Allocate or Extend succeeds exactly when its new blocks fit
//     in AvailableBlocks;
//   - a new handle reuses the most recently freed slot, or extends the
//     slab by one when none is free;
//   - Free returns the footprint the model holds for the request.
func FuzzPoolOps(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 10, 0x01, 20, 0xc1, 0, 0x02, 5, 0x80, 3, 0xc0, 0})
	f.Add([]byte{0x1c, 0x40, 0x3e, 0x41, 0x3e, 0xc0, 0, 0xc1, 0, 0x42, 0x0d, 0x5b, 0x0c})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := data[0]
		blockSize := 1 << (cfg & 3)
		p := NewPool(128, blockSize)
		bt := 0
		if cfg&4 != 0 {
			bt = blockSize * (2 + 2*int(cfg>>5&1))
			offload := [4]int{0, bt, -1, -1}[cfg>>3&3]
			p.EnablePrefixCache(PrefixConfig{BlockTokens: bt, OffloadCapacityTokens: offload})
		}
		var chains [4][]uint64
		for i := range chains {
			chains[i] = hashes(3, uint64(i+1))
		}

		held := map[int64]*poolModelEntry{}
		var freed []Handle // the model's free stack
		slots := 0
		used, peak := 0, 0
		// private is the part of e the allocation holds outside the cache.
		private := func(e *poolModelEntry) int { return e.tokens - len(e.hashes)*bt }
		recompute := func() {
			used = 0
			pinned := map[uint64]bool{}
			for _, e := range held {
				used += private(e)
				for _, h := range e.hashes {
					pinned[h] = true
				}
			}
			used += len(pinned) * bt
			peak = max(peak, used)
		}
		admit := func(op int, id int64, h Handle, tokens int, hs []uint64) {
			want := Handle(slots + 1)
			if n := len(freed); n > 0 {
				want = freed[n-1]
				freed = freed[:n-1]
			} else {
				slots++
			}
			if h != want {
				t.Fatalf("op %d: request %d got handle %d, want %d", op, id, h, want)
			}
			held[id] = &poolModelEntry{h: h, tokens: tokens, hashes: hs}
		}

		ops := data[1:]
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], int(ops[i+1])
			id := int64(op & 7)
			e := held[id]
			switch kind := op >> 6; {
			case kind <= 1 && e != nil:
				continue // the caller contract: never allocate twice
			case kind == 1 && bt > 0:
				n := arg >> 2 & 3
				tail := arg >> 4
				if n == 0 && tail == 0 {
					tail = 1
				}
				hs := chains[arg&3][:n]
				h, _, _ := p.AllocatePrefixed(id, n*bt+tail, hs, int(op>>3&7))
				if h != 0 {
					admit(i, id, h, n*bt+tail, hs)
				}
			case kind <= 1:
				tokens := arg%48 + 1
				fits := blocksFor(tokens, blockSize) <= p.AvailableBlocks()
				h := p.Allocate(id, tokens)
				if (h != 0) != fits {
					t.Fatalf("op %d: Allocate(%d, %d) = %d, but fits = %v", i, id, tokens, h, fits)
				}
				if h != 0 {
					admit(i, id, h, tokens, nil)
				}
			case e == nil:
				continue
			case kind == 2:
				extra := arg%16 + 1
				need := blocksFor(private(e)+extra, blockSize) - blocksFor(private(e), blockSize)
				fits := need <= p.AvailableBlocks()
				if got := p.BlocksNeededToExtendByOne(e.h, id); got != blocksFor(private(e)+1, blockSize)-blocksFor(private(e), blockSize) {
					t.Fatalf("op %d: BlocksNeededToExtendByOne = %d", i, got)
				}
				if ok := p.Extend(e.h, id, extra); ok != fits {
					t.Fatalf("op %d: Extend(%d, +%d) = %v, but fits = %v", i, id, extra, ok, fits)
				} else if ok {
					e.tokens += extra
				}
			default:
				if got := p.Free(e.h, id); got != e.tokens {
					t.Fatalf("op %d: Free(%d) returned %d, model holds %d", i, id, got, e.tokens)
				}
				freed = append(freed, e.h)
				delete(held, id)
			}
			recompute()
			if err := p.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			if p.UsedTokens() != used || p.PeakUsedTokens() != peak {
				t.Fatalf("op %d: used %d peak %d, model %d / %d", i, p.UsedTokens(), p.PeakUsedTokens(), used, peak)
			}
			if live(p) != len(held) || len(p.slab) != slots {
				t.Fatalf("op %d: live %d of %d slots, model %d of %d", i, live(p), len(p.slab), len(held), slots)
			}
		}
		for id, e := range held {
			p.Free(e.h, id)
		}
		if p.UsedTokens() != 0 || p.FreeTokens() != p.CapacityTokens() {
			t.Fatalf("drained pool: used %d, free %d of %d", p.UsedTokens(), p.FreeTokens(), p.CapacityTokens())
		}
		if err := p.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}
