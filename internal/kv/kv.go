// Package kv implements the KV-cache memory pool the serving engine
// allocates request state from.
//
// The pool is block-granular: LightLLM's TokenAttention corresponds to
// BlockSize = 1 (token-exact allocation, zero internal fragmentation);
// vLLM's PagedAttention corresponds to BlockSize = 16 (a request's last
// block is partially used, wasting up to BlockSize-1 slots). Schedulers see
// logical token counts; the pool additionally accounts the physical blocks
// so fragmentation shows up in memory-utilisation metrics and in the
// block-size ablation.
//
// # Handles
//
// Allocation records live in a dense slab, not in a map keyed by request
// id: the decode step extends every running request by one token, and a
// hash lookup per request per step would be the simulator's largest single
// cost. Allocate and AllocatePrefixed return a Handle that names the
// record's slab slot (slot+1, so the zero Handle means "holds nothing").
// Extend, BlocksNeededToExtendByOne and Free take that handle and index the
// slab directly. Freed slots go on a stack and are reused, most recent
// first, before the slab grows; a reused record keeps the capacity of its
// shared-block slice, so steady-state churn allocates nothing.
//
// Every handle operation also takes the owner's request id, which the
// record stores. A handle that is out of range, names a freed slot, or
// names another request's record (a stale handle, or one issued by a
// different pool) panics, as an unknown id did when records were keyed by
// id. The caller keeps the handle beside the request and zeroes it when it
// frees. The pool cannot see a second allocation for the same id, so the
// caller must never allocate for a request that still holds a handle.
package kv

import "fmt"

// Handle names one live allocation in a Pool. The zero Handle is never
// issued: it means "no allocation".
type Handle int32

// Pool is a KV-cache allocator over a fixed number of token slots.
// It is not safe for concurrent use; the engine owns it single-threaded.
type Pool struct {
	capacityTokens int
	blockSize      int
	totalBlocks    int
	freeBlocks     int

	// slab holds the allocation records; Handle h names slab[h-1].
	// freeSlots is the stack of released slot indices; every other slot
	// holds a live allocation.
	slab      []alloc
	freeSlots []int32

	logicalUsed int // sum of allocated logical tokens
	peakLogical int
	peakBlocks  int

	// prefix is the opt-in prefix-cache layer (see prefix.go); nil keeps
	// the allocator bit-identical to the pre-cache behavior.
	prefix *prefixState
}

type alloc struct {
	id     int64 // owning request, checked by every handle operation
	live   bool  // false while the slot sits on the free stack
	tokens int   // logical tokens allocated privately to the request
	blocks int   // physical blocks backing the private tokens
	// shared are the pinned prefix-cache blocks the request references
	// (empty outside prefix-caching mode). Shared blocks are accounted once
	// pool-wide, not per request.
	shared []*prefixBlock
}

// NewPool creates a pool with the given capacity in token slots and block
// size. Capacity is rounded down to a whole number of blocks. The slab
// starts empty and grows with the number of concurrent allocations.
func NewPool(capacityTokens, blockSize int) *Pool {
	if capacityTokens <= 0 || blockSize <= 0 {
		panic(fmt.Sprintf("kv: invalid pool capacity=%d blockSize=%d", capacityTokens, blockSize))
	}
	total := capacityTokens / blockSize
	if total == 0 {
		panic("kv: capacity smaller than one block")
	}
	return &Pool{
		capacityTokens: total * blockSize,
		blockSize:      blockSize,
		totalBlocks:    total,
		freeBlocks:     total,
	}
}

// CapacityTokens returns the usable capacity in token slots.
func (p *Pool) CapacityTokens() int { return p.capacityTokens }

// BlockSize returns the allocation granularity in tokens.
func (p *Pool) BlockSize() int { return p.blockSize }

// UsedTokens returns the logical token slots in use (what schedulers count).
func (p *Pool) UsedTokens() int { return p.logicalUsed }

// PhysicalUsedTokens returns block-granular usage including fragmentation.
func (p *Pool) PhysicalUsedTokens() int {
	return (p.totalBlocks - p.freeBlocks) * p.blockSize
}

// FreeTokens returns the token slots an allocation could claim right now:
// physically free blocks plus, in prefix-caching mode, the reclaimable
// cached blocks the allocator evicts on demand.
func (p *Pool) FreeTokens() int {
	free := p.freeBlocks * p.blockSize
	if p.prefix != nil {
		free += p.prefix.freeCnt * p.prefix.blockTokens
	}
	return free
}

// FragmentationWaste returns the slots lost to partially filled blocks:
// physical usage minus logical usage minus reclaimable cache. Cached
// refs-0 blocks occupy physical memory but are reusable content, not
// fragmentation, and a shared pinned block counts once however many
// requests reference it (the refcounted-accounting rule).
func (p *Pool) FragmentationWaste() int {
	return p.PhysicalUsedTokens() - p.logicalUsed - p.ReclaimableTokens()
}

// PeakUsedTokens returns the high-water mark of logical usage.
func (p *Pool) PeakUsedTokens() int { return p.peakLogical }

func blocksFor(tokens, blockSize int) int {
	return (tokens + blockSize - 1) / blockSize
}

// CanAllocate reports whether a fresh allocation of the given logical size
// would succeed right now (reclaimable cached blocks count as available).
func (p *Pool) CanAllocate(tokens int) bool {
	return blocksFor(tokens, p.blockSize) <= p.availableBlocks()
}

// availableBlocks is the free-block budget an allocation can draw on: the
// free list plus, in prefix-caching mode, the reclaimable cached blocks.
func (p *Pool) availableBlocks() int {
	avail := p.freeBlocks
	if p.prefix != nil {
		avail += p.prefix.freeCnt * p.prefix.physPerBlock
	}
	return avail
}

// Allocate reserves tokens slots for the request and returns the handle of
// the allocation. It returns 0 (and changes nothing) if the pool lacks
// physical space — in prefix-caching mode it first reclaims cached blocks
// LRU-first. The caller must not allocate for a request that still holds a
// handle: the engine must Free (eviction) before re-admitting.
func (p *Pool) Allocate(id int64, tokens int) Handle {
	if tokens <= 0 {
		panic(fmt.Sprintf("kv: allocate %d tokens for request %d", tokens, id))
	}
	need := blocksFor(tokens, p.blockSize)
	if need > p.freeBlocks {
		if need > p.availableBlocks() {
			return 0
		}
		p.reclaimFor(need)
	}
	p.freeBlocks -= need
	h, _ := p.newRecord(id, tokens, need)
	p.logicalUsed += tokens
	p.notePeaks()
	return h
}

// newRecord claims a slab slot for the request, reusing the most recently
// freed slot before growing the slab, and returns its handle and record.
// The record pointer is valid until the slab next grows.
func (p *Pool) newRecord(id int64, tokens, blocks int) (Handle, *alloc) {
	var slot int
	if n := len(p.freeSlots); n > 0 {
		slot = int(p.freeSlots[n-1])
		p.freeSlots = p.freeSlots[:n-1]
	} else {
		p.slab = append(p.slab, alloc{})
		slot = len(p.slab) - 1
	}
	a := &p.slab[slot]
	a.id, a.live, a.tokens, a.blocks = id, true, tokens, blocks
	return Handle(slot + 1), a
}

// record returns the live allocation h names if it belongs to request id,
// else nil. Small enough to inline: the per-token callers pay no call.
func (p *Pool) record(h Handle, id int64) *alloc {
	if uint(h-1) < uint(len(p.slab)) {
		if a := &p.slab[h-1]; a.live && a.id == id {
			return a
		}
	}
	return nil
}

// badHandle says why h is not request id's live allocation; op names the
// caller.
func (p *Pool) badHandle(h Handle, id int64, op string) string {
	switch {
	case h <= 0 || int(h) > len(p.slab):
		return fmt.Sprintf("kv: %s of request %d with unknown handle %d", op, id, h)
	case !p.slab[h-1].live:
		return fmt.Sprintf("kv: %s of request %d with freed handle %d", op, id, h)
	default:
		return fmt.Sprintf("kv: %s of request %d with handle %d owned by request %d",
			op, id, h, p.slab[h-1].id)
	}
}

// FreeBlocks returns the number of free physical blocks.
func (p *Pool) FreeBlocks() int { return p.freeBlocks }

// AvailableBlocks returns the block budget an allocation or extension can
// draw on right now: physically free blocks plus, in prefix-caching mode,
// the reclaimable cached blocks (evicted on demand, LRU-first).
func (p *Pool) AvailableBlocks() int { return p.availableBlocks() }

// BlocksNeededToExtendByOne returns how many new blocks (0 or 1) extending
// request id's allocation h by one token would consume. A handle that is
// not id's live allocation panics.
func (p *Pool) BlocksNeededToExtendByOne(h Handle, id int64) int {
	a := p.record(h, id)
	if a == nil {
		panic(p.badHandle(h, id, "extend-need"))
	}
	return p.growBlocks(a, 1)
}

// growBlocks returns the new blocks growing a by extra tokens takes:
// blocksFor(a.tokens+extra) - a.blocks, without the division when the
// growth fits in one more block (always, for a one-token decode step).
func (p *Pool) growBlocks(a *alloc, extra int) int {
	over := a.tokens + extra - a.blocks*p.blockSize // tokens past the last block
	switch {
	case over <= 0:
		return 0
	case over <= p.blockSize:
		return 1
	}
	return blocksFor(over, p.blockSize)
}

// Extend grows request id's allocation h by extra tokens, returning false
// if physical space is exhausted — in prefix-caching mode it first reclaims
// cached blocks LRU-first, so decode never stalls behind cold cache. A
// handle that is not id's live allocation panics. Growth is private:
// generated tokens are never published into the prefix cache (a follow-up
// turn republishes them as prompt blocks).
func (p *Pool) Extend(h Handle, id int64, extra int) bool {
	if extra <= 0 {
		panic(fmt.Sprintf("kv: extend by %d tokens", extra))
	}
	a := p.record(h, id)
	if a == nil {
		panic(p.badHandle(h, id, "extend"))
	}
	need := p.growBlocks(a, extra)
	if need > p.freeBlocks {
		if need > p.availableBlocks() {
			return false
		}
		p.reclaimFor(need)
	}
	p.freeBlocks -= need
	a.blocks += need
	a.tokens += extra
	p.logicalUsed += extra
	p.notePeaks()
	return true
}

// Free releases request id's allocation h and returns the logical tokens
// it held (shared prefix blocks included). Private blocks return to the
// free list; shared blocks are unpinned and, once unreferenced, stay
// resident as reclaimable cache. The slot goes on the free stack, so h is
// dead afterwards: freeing or using it again panics, as a freed slot or,
// once the slot is reused, as another request's record.
func (p *Pool) Free(h Handle, id int64) int {
	a := p.record(h, id)
	if a == nil {
		panic(p.badHandle(h, id, "free"))
	}
	p.freeBlocks += a.blocks
	p.logicalUsed -= a.tokens
	tokens := a.tokens
	if p.prefix != nil {
		tokens += p.releaseShared(a)
	}
	a.live, a.tokens, a.blocks = false, 0, 0
	p.freeSlots = append(p.freeSlots, int32(h-1))
	return tokens
}

// Utilization returns logical usage as a fraction of capacity.
func (p *Pool) Utilization() float64 {
	return float64(p.logicalUsed) / float64(p.capacityTokens)
}

// CheckInvariants verifies internal accounting; tests call it after
// operation sequences. It returns an error rather than panicking so
// property tests can report the failing sequence.
func (p *Pool) CheckInvariants() error {
	usedBlocks := 0
	logical := 0
	pins := 0
	live := 0
	for slot := range p.slab {
		a := &p.slab[slot]
		if !a.live {
			if a.tokens != 0 || a.blocks != 0 || len(a.shared) != 0 {
				return fmt.Errorf("kv: freed slot %d holds tokens=%d blocks=%d shared=%d",
					slot, a.tokens, a.blocks, len(a.shared))
			}
			continue
		}
		live++
		id := a.id
		if a.tokens < 0 || a.blocks < 0 || (a.tokens == 0 && len(a.shared) == 0) {
			return fmt.Errorf("kv: request %d has empty allocation", id)
		}
		if a.blocks != blocksFor(a.tokens, p.blockSize) {
			return fmt.Errorf("kv: request %d blocks=%d tokens=%d inconsistent", id, a.blocks, a.tokens)
		}
		if p.prefix == nil && len(a.shared) != 0 {
			return fmt.Errorf("kv: request %d holds shared blocks without prefix cache", id)
		}
		for _, b := range a.shared {
			if b.refs <= 0 || b.inLRU {
				return fmt.Errorf("kv: request %d pins block %x with refs=%d inLRU=%v", id, b.hash, b.refs, b.inLRU)
			}
			if p.prefix.resident[b.hash] != b {
				return fmt.Errorf("kv: request %d pins non-resident block %x", id, b.hash)
			}
		}
		pins += len(a.shared)
		usedBlocks += a.blocks
		logical += a.tokens
	}
	// Every slot is live or on the free stack: never both, never twice.
	stacked := make([]bool, len(p.slab))
	for _, slot := range p.freeSlots {
		switch {
		case slot < 0 || int(slot) >= len(p.slab):
			return fmt.Errorf("kv: free stack holds slot %d outside the slab (len %d)", slot, len(p.slab))
		case p.slab[slot].live:
			return fmt.Errorf("kv: free stack holds live slot %d (request %d)", slot, p.slab[slot].id)
		case stacked[slot]:
			return fmt.Errorf("kv: free stack holds slot %d twice", slot)
		}
		stacked[slot] = true
	}
	if live+len(p.freeSlots) != len(p.slab) {
		return fmt.Errorf("kv: slot leak: %d live + %d stacked != %d slots", live, len(p.freeSlots), len(p.slab))
	}
	if px := p.prefix; px != nil {
		refs, reclaimable := 0, 0
		for h, b := range px.resident {
			if b.hash != h {
				return fmt.Errorf("kv: resident block %x indexed under %x", b.hash, h)
			}
			refs += b.refs
			if b.refs == 0 {
				reclaimable++
				if !b.inLRU {
					return fmt.Errorf("kv: refs-0 block %x off the reclaim list", h)
				}
			} else {
				if b.inLRU {
					return fmt.Errorf("kv: pinned block %x on the reclaim list", h)
				}
				logical += px.blockTokens // referenced shared blocks count once
			}
			if _, off := px.offload[h]; off {
				return fmt.Errorf("kv: block %x both resident and offloaded", h)
			}
		}
		if refs != pins {
			return fmt.Errorf("kv: refcount drift: %d pins vs %d refs", pins, refs)
		}
		if reclaimable != px.freeCnt {
			return fmt.Errorf("kv: reclaim count drift: %d listed vs %d counted", px.freeCnt, reclaimable)
		}
		walked := 0
		for b := px.lruHead; b != nil; b = b.next {
			if b.refs != 0 || !b.inLRU {
				return fmt.Errorf("kv: reclaim list holds pinned block %x", b.hash)
			}
			walked++
		}
		if walked != px.freeCnt {
			return fmt.Errorf("kv: reclaim list length %d vs freeCnt %d", walked, px.freeCnt)
		}
		usedBlocks += len(px.resident) * px.physPerBlock
	}
	if usedBlocks+p.freeBlocks != p.totalBlocks {
		return fmt.Errorf("kv: blocks leak: used=%d free=%d total=%d", usedBlocks, p.freeBlocks, p.totalBlocks)
	}
	if logical != p.logicalUsed {
		return fmt.Errorf("kv: logical usage drift: %d vs %d", logical, p.logicalUsed)
	}
	return nil
}

func (p *Pool) notePeaks() {
	if p.logicalUsed > p.peakLogical {
		p.peakLogical = p.logicalUsed
	}
	if used := p.totalBlocks - p.freeBlocks; used > p.peakBlocks {
		p.peakBlocks = used
	}
}
