package engine

import (
	"fmt"

	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/kv"
	"github.com/lightllm-go/lightllm/internal/request"
)

// maxAdmitRetries bounds re-asking a sampling scheduler about an otherwise
// unservable queue head before the engine fails the request.
const maxAdmitRetries = 3

// Step executes one engine iteration and returns false when the engine is
// fully drained (no queue, no batch, no future arrivals).
func (e *Engine) Step() bool {
	e.released = false
	if e.Idle() {
		return false
	}
	if !e.started {
		e.started = true
		if e.arrivals.Len() > 0 && e.arrivals[0].at > e.clock {
			e.clock = e.arrivals[0].at
		}
		e.startClock = e.clock
		e.memUtil.Start(e.clock)
		e.physUtil.Start(e.clock)
		e.batchSize.Start(e.clock)
	}
	e.moveArrivals()
	e.dropExpired()

	if e.cfg.Strategy == StaticBatch {
		return e.stepStatic()
	}

	var admitted []*request.Request
	if e.queue.Len() > 0 {
		admitted = e.admit()
	}

	switch {
	case e.cfg.Chunked.Enabled:
		e.enqueueChunked(admitted)
		if len(e.running)+len(e.prefilling) > 0 {
			e.runChunked()
			return true
		}
	case len(admitted) > 0:
		e.runPrefill(admitted)
		return true
	case len(e.running) > 0:
		e.runDecode()
		return true
	}

	// Nothing is running and nothing was admitted.
	if e.arrivals.Len() > 0 {
		next := e.arrivals[0].at
		if next > e.clock {
			e.observe(next) // idle gap: occupancy holds (zero) until arrival
			e.clock = next
		}
		e.moveArrivals()
		return true
	}
	if e.queue.Len() > 0 {
		// No memory can ever free (empty batch) and the scheduler refuses
		// the head. Retry a few times for sampling schedulers, then fail it.
		e.admitRetries++
		if e.admitRetries >= maxAdmitRetries {
			e.failRequest(e.queue.PopFront())
			e.admitRetries = 0
		}
		return true
	}
	return false
}

// moveArrivals transfers due arrivals into the FCFS queue.
func (e *Engine) moveArrivals() {
	for e.arrivals.Len() > 0 && e.arrivals[0].at <= e.clock {
		e.queue.PushBack(e.arrivals.pop().r)
	}
}

// dropExpired abandons queued requests whose TTFT deadline has passed
// (QueueTimeout semantics; see Config). Re-queued evicted requests, which
// have already streamed tokens, are exempt.
func (e *Engine) dropExpired() {
	if e.cfg.QueueTimeout <= 0 || e.queue.Len() == 0 {
		return
	}
	e.queue.Filter(
		func(r *request.Request) bool {
			return !(r.FirstTokenAt < 0 && e.clock-r.ArrivalTime > e.cfg.QueueTimeout)
		},
		func(r *request.Request) {
			r.MarkDropped(e.clock)
			e.timedOut = append(e.timedOut, r)
			e.released = true
			if e.hooks.onDrop != nil {
				e.hooks.onDrop(e.clock, r)
			}
		},
	)
}

// admit asks the scheduler for a FCFS prefix, allocates prompt memory, and
// removes the admitted requests from the queue. All slices it hands out
// (the scheduler's view, the admit hook argument, the returned admissions)
// are per-step scratch buffers: valid until the next Step, never retained
// by the engine, and must not be retained by hooks or schedulers. Reusing
// them keeps a steady-state Step free of heap allocations.
func (e *Engine) admit() []*request.Request {
	batchView := e.running
	if len(e.prefilling) > 0 {
		e.batchScratch = append(e.batchScratch[:0], e.running...)
		for _, p := range e.prefilling {
			e.batchScratch = append(e.batchScratch, p.req)
		}
		batchView = e.batchScratch
	}
	e.queueScratch = e.queue.AppendTo(e.queueScratch[:0])
	e.viewScratch = core.View{
		Now:            e.clock,
		CapacityTokens: e.pool.CapacityTokens(),
		UsedTokens:     e.pool.UsedTokens(),
		FreeTokens:     e.pool.FreeTokens(),
		Running:        batchView,
		History:        e.history,
	}
	if e.classHist != nil {
		e.viewScratch.ClassHistory = e.ClassWindow
	}
	n := e.sched.Admit(&e.viewScratch, e.queueScratch)
	if n <= 0 {
		return nil
	}
	if e.cfg.MaxPrefillTokens > 0 && !e.cfg.Chunked.Enabled {
		// Chunked prefill repurposes MaxPrefillTokens as the per-iteration
		// chunk budget instead of an admission trim: admissions reserve KV
		// immediately and their prompts land chunk by chunk.
		// Trim the admitted prefix to the prefill token budget via the
		// deque's maintained prefix sums — one O(log n) search instead of
		// re-walking every candidate's footprint. At least one request is
		// always prefilled so oversized prompts still make progress.
		if cut := e.queue.PrefixWithin(int64(e.cfg.MaxPrefillTokens), n); cut < n {
			n = cut
			if n < 1 {
				n = 1
			}
		}
	}
	admitted := e.admitScratch[:0]
	for i := 0; i < n; i++ {
		r := e.queue.Front()
		if !e.allocateFor(r) {
			break // block fragmentation: physically infeasible, stop here
		}
		e.queue.PopFront()
		r.State = request.Running
		r.Admissions++
		e.admissions++
		// A migrated first admission encodes nothing here: the prompt was
		// processed on the prefill engine and the KV arrived over the link,
		// so neither input nor recompute tokens accrue to this engine.
		if !r.Migrated {
			e.inputTokens += int64(r.InputLen)
			if r.Generated > 0 && !r.Swapped {
				e.recomputeTokens += int64(r.Footprint() - r.CachedTokens - r.RestoredTokens)
			}
		}
		admitted = append(admitted, r)
	}
	e.admitScratch = admitted
	if len(admitted) == 0 {
		return nil
	}
	e.admitRetries = 0
	if e.hooks.onAdmit != nil {
		e.hooks.onAdmit(e.clock, admitted)
	}
	// Record the ground-truth future peak of the post-admission batch
	// (Table 1's "Future Required Memory") via the reusable estimator.
	e.truePeak.Reset()
	for _, r := range batchView {
		e.truePeak.PushTrue(r)
	}
	for _, r := range admitted {
		e.truePeak.PushTrue(r)
	}
	e.futureReq.Add(float64(e.truePeak.Peak()) / float64(e.pool.CapacityTokens()))
	return admitted
}

// allocateFor reserves KV memory for an admission. With prefix caching
// enabled and a hash-carrying fresh prompt, resident prefix blocks are
// shared instead of reallocated and offloaded blocks are restored over the
// host link when the wire is cheaper than recomputing them; the request is
// stamped with the tokens its prefill will not re-encode. Migrated and
// swapped admissions already carry their KV state and bypass the cache.
func (e *Engine) allocateFor(r *request.Request) bool {
	if r.KVHandle != 0 {
		panic(fmt.Sprintf("engine: admitting request %d while it holds KV handle %d", r.ID, r.KVHandle))
	}
	if !e.pool.PrefixCacheEnabled() || len(r.PrefixHashes) == 0 || r.Migrated || r.Swapped {
		r.KVHandle = int32(e.pool.Allocate(r.ID, r.Footprint()))
		return r.KVHandle != 0
	}
	restore := 0
	hitBlocks, offBlocks := e.pool.MatchPrefixDetail(r.PrefixHashes)
	if offBlocks > 0 {
		// Restore-vs-recompute: restoring C tokens pays wire time; skipping
		// it folds them into the prefill's marginal compute on top of the
		// tokens that must be encoded anyway.
		bt := e.pool.PrefixBlockTokens()
		c := offBlocks * bt
		miss := r.Footprint() - hitBlocks*bt - c
		if e.cfg.Perf.SwapTime(c) < e.cfg.Perf.PrefillMarginal(miss, c) {
			restore = offBlocks
		}
	}
	h, hit, restored := e.pool.AllocatePrefixed(r.ID, r.Footprint(), r.PrefixHashes, restore)
	if h == 0 {
		return false
	}
	r.KVHandle = int32(h)
	r.CachedTokens = hit
	r.RestoredTokens = restored
	e.cacheHitTokens += int64(hit)
	e.cacheRestoredTokens += int64(restored)
	return true
}

// free releases a request's KV allocation and zeroes its handle, together
// with its prefix-cache stamps: once the allocation is gone the shared
// blocks are unpinned, so the discount must not survive into the
// estimators or a re-admission. It is the only place a handle is cleared.
func (e *Engine) free(r *request.Request) {
	e.pool.Free(kv.Handle(r.KVHandle), r.ID)
	r.KVHandle = 0
	r.CachedTokens = 0
	r.RestoredTokens = 0
	r.ChunkedPrefill = false
	r.PrefillDone = 0
}

// ensureExtendable evicts running requests (most recently admitted first)
// until every request in grow can gain one token. Returns the requests that
// remain extendable; if even a lone request cannot grow, it is failed.
func (e *Engine) ensureExtendable(grow []*request.Request) {
	for {
		need := 0
		for _, r := range grow {
			if r.KVHandle != 0 { // evicted entries drop out
				need += e.pool.BlocksNeededToExtendByOne(kv.Handle(r.KVHandle), r.ID)
			}
		}
		// Reclaimable cached blocks count as space: Extend evicts cold cache
		// LRU-first, so running requests are never preempted to protect it.
		if need <= e.pool.AvailableBlocks() {
			return
		}
		switch {
		case len(e.running) > 1:
			e.evictLast()
		case len(e.running) == 1:
			// A single running request that cannot grow: unservable.
			victim := e.running[0]
			e.running = e.running[:0]
			e.free(victim)
			e.failRequest(victim)
		default:
			return // nothing evictable; callers handle failed extensions
		}
	}
}

// evictLast evicts the most recently admitted running request (vLLM's
// recompute preemption): free its memory and push it to the queue front.
func (e *Engine) evictLast() {
	victim := e.running[len(e.running)-1]
	e.running = e.running[:len(e.running)-1]
	e.free(victim)
	victim.State = request.Waiting
	victim.Evictions++
	if e.cfg.Eviction == Swap {
		victim.Swapped = true // KV parked in host memory
	}
	e.evictions++
	e.queue.PushFront(victim)
	if e.hooks.onEvict != nil {
		e.hooks.onEvict(e.clock, victim)
	}
}

// runPrefill executes one fused prefill iteration over the admitted prompts
// (prefill-priority strategy): decode pauses while the admitted prompts are
// encoded; the newcomers join the running batch and emit their first token
// at the next decode step. This matches the paper's memory model exactly: a
// request admitted with l_t generated tokens occupies l_p + l_t slots and
// grows by one per decode step until its predicted length.
func (e *Engine) runPrefill(admitted []*request.Request) {
	promptTokens := 0
	swapTokens := 0
	restoreTokens := 0
	for _, r := range admitted {
		if r.Migrated {
			// First admission of a KV migration from a prefill engine: the
			// cache arrived over the cluster's transfer link (already
			// simulated there), so this engine pays nothing. A later
			// eviction clears the flag's benefit: recompute as usual.
			r.Migrated = false
			continue
		}
		if r.Swapped {
			// Swap recovery: the KV state streams back over the host link
			// instead of being recomputed.
			swapTokens += r.Footprint()
			r.Swapped = false
			e.swapInTokens += int64(r.Footprint())
			continue
		}
		// Prefix-cache hits are prompt tokens this iteration never encodes;
		// offload restores replace their compute with host-link wire time.
		promptTokens += r.Footprint() - r.CachedTokens - r.RestoredTokens
		restoreTokens += r.RestoredTokens
	}
	dur := e.scaled(e.cfg.Perf.PrefillTime(promptTokens) + e.cfg.Perf.SwapTime(swapTokens) +
		e.cfg.Perf.SwapTime(restoreTokens))
	e.prefillComputeTokens += int64(promptTokens)
	e.clock += dur
	e.prefillIters++
	if e.cfg.Role == RolePrefillOnly {
		e.completePrefills(admitted)
		e.observe(e.clock)
		e.iterationHook("prefill", dur, len(admitted))
		return
	}
	e.running = append(e.running, admitted...)
	e.observe(e.clock)
	e.iterationHook("prefill", dur, len(admitted))
}

// completePrefills ends admitted requests at their first token (prefill-only
// role): the prefill pass computes the first output token, the KV memory is
// released for the next prompt wave, and the request either finishes here
// (single-token outputs need no decode phase) or is handed off for KV
// migration to a decode engine.
func (e *Engine) completePrefills(admitted []*request.Request) {
	for _, r := range admitted {
		r.EmitToken(e.clock)
		if e.hooks.onToken != nil {
			e.hooks.onToken(e.clock, r)
		}
		e.outputTokens++
		e.free(r)
		e.released = true
		if r.Done() {
			r.Finish(e.clock)
			e.recordFinishedLength(r.Class, r.TrueOutputLen)
			e.finished = append(e.finished, r)
			if e.hooks.onFinish != nil {
				e.hooks.onFinish(e.clock, r)
			}
			continue
		}
		r.PrefillDoneAt = e.clock
		e.handedOff = append(e.handedOff, r)
		if e.hooks.onHandoff != nil {
			e.hooks.onHandoff(e.clock, r)
		}
	}
}

// runDecode executes one decode step: every running request emits one token.
func (e *Engine) runDecode() {
	e.ensureExtendable(e.running)
	if len(e.running) == 0 {
		return
	}
	n := len(e.running)
	kvTokens := e.pool.UsedTokens() + n
	dur := e.scaled(e.cfg.Perf.DecodeTime(n, kvTokens))
	e.clock += dur
	e.decodeSteps++
	for _, r := range e.running {
		if !e.pool.Extend(kv.Handle(r.KVHandle), r.ID, 1) {
			// ensureExtendable guarantees space; defensive requeue.
			e.requeue(r)
			continue
		}
		r.EmitToken(e.clock)
		if e.hooks.onToken != nil {
			e.hooks.onToken(e.clock, r)
		}
		e.outputTokens++
	}
	e.completeDone()
	e.observe(e.clock)
	e.iterationHook("decode", dur, n)
}

// requeue returns a request to the queue front after a failed extension.
func (e *Engine) requeue(r *request.Request) {
	if r.KVHandle != 0 {
		e.free(r)
	}
	for i, rr := range e.running {
		if rr == r {
			e.running = append(e.running[:i], e.running[i+1:]...)
			break
		}
	}
	r.State = request.Waiting
	r.Evictions++
	e.evictions++
	e.queue.PushFront(r)
	if e.hooks.onEvict != nil {
		e.hooks.onEvict(e.clock, r)
	}
}

// completeDone finishes every running request whose output is complete:
// memory is released and the actual output length feeds the history window.
func (e *Engine) completeDone() {
	kept := e.running[:0]
	for _, r := range e.running {
		if !r.Done() {
			kept = append(kept, r)
			continue
		}
		e.free(r)
		e.released = true
		r.Finish(e.clock)
		e.recordFinishedLength(r.Class, r.TrueOutputLen)
		e.finished = append(e.finished, r)
		if e.hooks.onFinish != nil {
			e.hooks.onFinish(e.clock, r)
		}
	}
	e.running = kept
}

// observe records occupancy and batch-size time series at time t.
func (e *Engine) observe(t float64) {
	capacity := float64(e.pool.CapacityTokens())
	e.memUtil.Observe(t, float64(e.pool.UsedTokens())/capacity)
	e.physUtil.Observe(t, float64(e.pool.PhysicalUsedTokens())/capacity)
	e.batchSize.Observe(t, float64(len(e.running)+len(e.prefilling)+len(e.staticBatch)))
}

func (e *Engine) iterationHook(kind string, dur float64, batch int) {
	if e.hooks.onIteration != nil {
		e.hooks.onIteration(e.clock, Iteration{
			Kind: kind, Duration: dur, BatchSize: batch, KVTokens: e.pool.UsedTokens(),
		})
	}
}
