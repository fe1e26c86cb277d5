// Package obs is the event-sourced observability layer: a Collector that
// records each request's lifecycle through the simulator. The cluster
// (routing, admission, planner, faults, KV link) calls its exported
// methods; engine-side events (admission, tokens, evictions, drops,
// failures, finishes, chunks, iterations, prefix-cache flows) reach it
// through the engine's own hooks, installed by Attach.
//
// The layer is a strict observer. It samples state at execution points the
// simulator already visits — it never pushes events onto the cluster heap,
// never draws randomness, and never feeds anything back into a decision —
// so a recorded run makes bit-identical decisions to an unrecorded one
// (pinned by TestRecorderDisabledEquivalence and the bench.sh parity
// check). When disabled it costs nothing: the cluster guards each of its
// emission sites on a nil *Collector, and an engine with no Collector
// attached has no hooks to call, keeping the hot paths at 0 allocs/op.
//
// The Collector assembles the event stream into three artifacts:
//
//   - per-request spans with an exact TTFT decomposition
//     (hold + queue + prefill + wire + outage = TTFT, by construction);
//   - interval rollup time series (queue depths, batch sizes, KV bytes,
//     shed/crash/retry counters, planner targets vs actuals);
//   - a Chrome/Perfetto trace (replicas as tracks, requests as flows).
package obs

// Shed locations, mirroring the cluster's internal shed sites. Kept as
// strings so the span CSV and the audit report need no decoder ring.
const (
	// ShedFront: refused at the cluster front before any engine saw the
	// request.
	ShedFront = "front"
	// ShedBoundary: refused at the prefill→transfer boundary, after prefill
	// ran but before KV-link bandwidth was committed.
	ShedBoundary = "boundary"
	// ShedFlush: still held by admission control when the run ended.
	ShedFlush = "flush"
)
