package cluster

import (
	"fmt"
	"testing"

	"github.com/lightllm-go/lightllm/internal/request"
)

// benchFleet builds a fleet whose replicas carry realistic running batches
// and queues, then returns it with a candidate to probe. The Serve warm-up
// also warms every replica's history window, so the probes measured are the
// steady-state hot path.
func benchFleet(b *testing.B, nReplicas int, naive bool) (*Fleet, *request.Request) {
	b.Helper()
	f := MustNew(Config{
		Replicas:   replicas(nReplicas, 20_000),
		Policy:     FutureHeadroom,
		naiveProbe: naive,
	})
	// 60 requests/replica at 10 req/s/replica arrive over ~6 s; stopping the
	// serve at 3 s leaves every replica with a populated batch and queue.
	f.Serve(poissonReqs(60*nReplicas, float64(10*nReplicas), 41), 3)
	return f, request.New(1_000_000, 800, 400, 512, 0)
}

// BenchmarkFleetRoute measures one FutureHeadroom routing decision across
// the fleet — the warm per-replica estimator path (rebuild amortised,
// bound-pruned PeakWith probes). 96 replicas is the day-replay benchmark's
// fleet width. The companion TestProbeZeroAllocs pins allocs/op to 0.
func BenchmarkFleetRoute(b *testing.B) {
	for _, n := range []int{4, 16, 96} {
		b.Run(fmt.Sprintf("replicas=%d", n), func(b *testing.B) {
			f, cand := benchFleet(b, n, false)
			f.pick(cand)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.pick(cand)
			}
		})
	}
}

// BenchmarkFleetRouteRebuild additionally invalidates every replica's
// estimator each decision — the worst case where every replica stepped
// between arrivals and all estimators rebuild from their engines' state.
func BenchmarkFleetRouteRebuild(b *testing.B) {
	f, cand := benchFleet(b, 4, false)
	f.pick(cand)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rep := range f.reps {
			rep.invalidate()
		}
		f.pick(cand)
	}
}

// BenchmarkFleetRouteNaive is the reference baseline: one clone+sort
// core.PredictedBatchPeak per replica per decision, as the original router
// computed it.
func BenchmarkFleetRouteNaive(b *testing.B) {
	f, cand := benchFleet(b, 4, true)
	f.pick(cand)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.pick(cand)
	}
}

// BenchmarkClusterAdmit measures the deadline-heap hot path of cluster-front
// admission: one retry cycle's pop + re-push on a warm EDF queue. The
// storage is retained across operations, so the steady state performs zero
// heap allocations (pinned by TestAdmitQueueZeroAllocs).
func BenchmarkClusterAdmit(b *testing.B) {
	var h admitHeap
	r := request.New(1, 100, 10, 64, 0)
	for i := 0; i < 1024; i++ {
		h.push(admitItem{r: r, deadline: float64(i % 97), seq: int64(i)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := h.pop()
		it.deadline = float64(i % 89)
		it.seq = int64(i)
		h.push(it)
	}
}
