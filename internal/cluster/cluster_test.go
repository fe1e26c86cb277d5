package cluster

import (
	"fmt"
	"math"
	"testing"

	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/hw"
	"github.com/lightllm-go/lightllm/internal/metrics"
	"github.com/lightllm-go/lightllm/internal/model"
	"github.com/lightllm-go/lightllm/internal/perf"
	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/rng"
	"github.com/lightllm-go/lightllm/internal/workload"
)

func testPerf() *perf.Model {
	return perf.MustNew(perf.Config{Model: model.Llama2_7B, Cluster: hw.NewCluster(hw.A100_80G, 1)})
}

func replicas(n, capacity int) []*engine.Engine {
	pm := testPerf()
	out := make([]*engine.Engine, n)
	for i := range out {
		out[i] = engine.MustNew(engine.Config{
			Perf: pm,
			Scheduler: core.MustNewPastFuture(core.PastFutureConfig{
				Reserved: 0.05, Rng: rng.New(uint64(i + 1)),
			}),
			CapacityOverride: capacity,
		})
	}
	return out
}

func poissonReqs(n int, rate float64, seed uint64) []*request.Request {
	r := rng.New(seed)
	reqs := workload.Build(workload.ShareGPT, r, n, 1, 512)
	workload.AssignPoissonArrivals(reqs, r, rate, 0)
	return reqs
}

func TestFleetValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("no replicas accepted")
	}
	if _, err := New(Config{Replicas: replicas(2, 1000), Quantile: 1.5}); err == nil {
		t.Fatal("bad quantile accepted")
	}
	if _, err := New(Config{
		Replicas: replicas(2, 1000),
		Scale:    &AutoScale{Min: 0, Max: 2},
	}); err == nil {
		t.Fatal("bad autoscale bounds accepted")
	}
	if _, err := New(Config{
		Replicas: replicas(2, 1000),
		Scale:    &AutoScale{Min: 1, Max: 2},
		Planner:  &PlannerConfig{SLA: metrics.SLASmall, Min: 1, Max: 2},
	}); err == nil {
		t.Fatal("Scale+Planner accepted")
	}
	if _, err := New(Config{
		Replicas: replicas(2, 1000),
		Planner:  &PlannerConfig{SLA: metrics.SLA{}, Min: 1, Max: 2},
	}); err == nil {
		t.Fatal("zero SLA targets accepted")
	}
	if _, err := New(Config{
		Replicas: replicas(2, 1000),
		Planner:  &PlannerConfig{SLA: metrics.SLASmall, Min: 2, Max: 1},
	}); err == nil {
		t.Fatal("bad planner bounds accepted")
	}
}

// TestPoolRejectsNaN: a NaN quantile or affinity weight fails every ordered
// comparison, so a range check written as `x < lo || x > hi` lets it
// through and poisons every probe score. New must refuse each bad value.
func TestPoolRejectsNaN(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name             string
		quantile, affine float64
	}{
		{"quantile NaN", nan, 0},
		{"quantile negative", -0.1, 0},
		{"quantile above 1", 1.5, 0},
		{"affinity NaN", 0.9, nan},
		{"affinity negative", 0.9, -0.5},
	} {
		_, err := New(Config{
			Replicas: replicas(2, 1000), Policy: FutureHeadroom,
			Quantile: tc.quantile, AffinityWeight: tc.affine,
		})
		if err == nil {
			t.Errorf("%s: New accepted quantile=%v affinity=%v", tc.name, tc.quantile, tc.affine)
		}
	}
	if _, err := New(Config{Replicas: replicas(2, 1000), Quantile: 1, AffinityWeight: 0.5}); err != nil {
		t.Fatalf("in-range quantile and affinity rejected: %v", err)
	}
}

// TestServeStreamMatchesServe: the pull-based arrival source — the
// streaming entry point long-trace replay uses — produces the same results
// as the materialized slice.
func TestServeStreamMatchesServe(t *testing.T) {
	run := func(stream bool) string {
		f := MustNew(Config{Replicas: replicas(2, 8_000), Policy: FutureHeadroom})
		reqs := poissonReqs(200, 60, 7)
		var results []*engine.Result
		if stream {
			i := 0
			results = f.ServeStream(func() *request.Request {
				if i >= len(reqs) {
					return nil
				}
				r := reqs[i]
				i++
				return r
			}, 1e9)
		} else {
			results = f.Serve(reqs, 1e9)
		}
		if f.EventsProcessed() == 0 {
			t.Fatal("no events counted")
		}
		return fmt.Sprintf("%+v", f.Report(results, metrics.SLA{TTFT: 6, MTPOT: 1.5}))
	}
	if got, ref := run(true), run(false); got != ref {
		t.Fatalf("stream report diverges:\ngot: %s\nref: %s", got, ref)
	}
}

// TestWarmProbeMatchesNaive pins the tentpole's equivalence claim: the warm
// per-replica PeakEstimator probe path (incremental PeakWith, zero
// allocations) must reproduce, decision for decision, the routing of the
// reference clone+sort core.PredictedBatchPeak path the original router
// used — on randomized seeded workloads heavy enough to queue.
func TestWarmProbeMatchesNaive(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			trace := func(naive bool) []int {
				var picks []int
				f := MustNew(Config{
					Replicas:   replicas(3, 12_000),
					Policy:     FutureHeadroom,
					naiveProbe: naive,
					OnRoute:    func(_ *request.Request, rep int) { picks = append(picks, rep) },
				})
				f.Serve(poissonReqs(250, 25, seed), 1e9)
				return picks
			}
			warm, naive := trace(false), trace(true)
			if len(warm) != len(naive) {
				t.Fatalf("decision counts differ: warm %d, naive %d", len(warm), len(naive))
			}
			for i := range warm {
				if warm[i] != naive[i] {
					t.Fatalf("decision %d differs: warm chose %d, naive chose %d", i, warm[i], naive[i])
				}
			}
		})
	}
}

// TestProbeZeroAllocs pins the other half of the claim: once a replica's
// estimator is warm, a FutureHeadroom probe (and a full pick across the
// fleet) performs zero heap allocations; so does an estimator rebuild after
// an invalidation that did not change the history window.
func TestProbeZeroAllocs(t *testing.T) {
	f := MustNew(Config{Replicas: replicas(4, 20_000), Policy: FutureHeadroom})
	reqs := poissonReqs(200, 40, 7)
	f.Serve(reqs, 1e9)

	cand := request.New(int64(9_999), 800, 400, 512, 0)
	f.pick(cand) // warm every replica's estimator and sampler
	if allocs := testing.AllocsPerRun(200, func() { f.pick(cand) }); allocs != 0 {
		t.Fatalf("warm pick allocates %v times per run", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		for _, rep := range f.reps {
			rep.invalidate() // state changed, window did not
		}
		f.pick(cand)
	}); allocs != 0 {
		t.Fatalf("estimator rebuild allocates %v times per run", allocs)
	}
}

func TestRoundRobinStartsAtFirstReplica(t *testing.T) {
	// Regression: the original router incremented its rotation counter
	// before the modulo, so the first request skipped replica 0.
	f := MustNew(Config{Replicas: replicas(3, 50_000), Policy: RoundRobin})
	reqs := poissonReqs(3, 5, 11)
	var picks []int
	f.cfg.OnRoute = func(_ *request.Request, rep int) { picks = append(picks, rep) }
	f.Serve(reqs, 1e9)
	want := []int{0, 1, 2}
	for i, p := range picks {
		if p != want[i] {
			t.Fatalf("round-robin picks %v, want %v", picks, want)
		}
	}
}

func TestAllRequestsServedOnce(t *testing.T) {
	for _, pol := range []Policy{RoundRobin, LeastLoaded, FutureHeadroom} {
		f := MustNew(Config{Replicas: replicas(3, 50_000), Policy: pol})
		results := f.Serve(poissonReqs(120, 30, 2), 1e9)
		seen := map[int64]bool{}
		for _, res := range results {
			for _, req := range res.Finished {
				if seen[req.ID] {
					t.Fatalf("%v: request %d served twice", pol, req.ID)
				}
				seen[req.ID] = true
			}
		}
		if len(seen) != 120 {
			t.Fatalf("%v: served %d of 120", pol, len(seen))
		}
	}
}

// TestActivationDelayGate: a scale-out decision at time t must not receive
// traffic before t+ActivationDelay.
func TestActivationDelayGate(t *testing.T) {
	const delay = 3.0
	var routed []*request.Request
	var toNew []*request.Request
	f := MustNew(Config{
		Replicas: replicas(2, 6_000),
		Policy:   FutureHeadroom,
		Scale:    &AutoScale{Min: 1, Max: 2, HighWater: 0.3, LowWater: 0.01, ActivationDelay: delay},
		OnRoute: func(r *request.Request, rep int) {
			routed = append(routed, r)
			if rep == 1 {
				toNew = append(toNew, r)
			}
		},
	})
	f.Serve(poissonReqs(200, 30, 13), 1e9)
	if out, _ := f.ScaleEvents(); out == 0 {
		t.Fatal("load never triggered a scale-out")
	}
	if len(toNew) == 0 {
		t.Fatal("scaled-out replica never received traffic")
	}
	wake := f.reps[1].wakeAt
	if wake <= 0 {
		t.Fatalf("scaled-out replica has no wake time")
	}
	for _, r := range toNew {
		if r.ArrivalTime < wake {
			t.Fatalf("request arriving at %.3f routed to replica activating at %.3f", r.ArrivalTime, wake)
		}
	}
	// And the activation delay was actually paid: the first request the new
	// replica received arrived at least `delay` after some earlier arrival.
	if wake-delay < routed[0].ArrivalTime {
		t.Fatalf("wake %.3f implies a scale-out before the first arrival %.3f", wake, routed[0].ArrivalTime)
	}
}

// TestScaleInKeepsLastReplica: scale-in must never deactivate the last
// active replica, even when the autoscaler's low-water threshold is
// permanently exceeded, and no request may be lost to a scale-in.
func TestScaleInKeepsLastReplica(t *testing.T) {
	f := MustNew(Config{
		Replicas: replicas(3, 50_000),
		Policy:   LeastLoaded,
		// LowWater 1.0: every evaluation wants to scale in.
		Scale: &AutoScale{Min: 1, Max: 3, HighWater: 2.0, LowWater: 1.0, ActivationDelay: 0.5, EvalInterval: 1},
	})
	results := f.Serve(poissonReqs(150, 10, 17), 1e9)
	if f.ActiveReplicas() < 1 {
		t.Fatalf("fleet scaled to %d active replicas", f.ActiveReplicas())
	}
	finished := 0
	for _, res := range results {
		finished += len(res.Finished)
	}
	if finished != 150 {
		t.Fatalf("finished %d of 150 after aggressive scale-in", finished)
	}
}

// TestPlannerDrainBeforeRetire: the predictive planner must not retire a
// busy replica mid-drain — it stops routing to it and retires it only once
// its queue and batch are empty.
func TestPlannerDrainBeforeRetire(t *testing.T) {
	var assignments = map[int64]int{}
	f := MustNew(Config{
		Replicas: replicas(4, 10_000),
		Policy:   FutureHeadroom,
		Planner: &PlannerConfig{
			SLA: metrics.SLASmall, Min: 1, Max: 4, Interval: 5,
			Predictor: HoltPredictor, ActivationDelay: 1,
		},
		OnRoute: func(r *request.Request, rep int) { assignments[r.ID] = rep },
	})
	// Heavy burst then silence: the planner must scale out, then drain and
	// retire the extra replicas without losing in-flight work.
	burst := poissonReqs(250, 35, 19)
	results := f.Serve(burst, 1e9)
	finished := 0
	for _, res := range results {
		finished += len(res.Finished)
	}
	if finished != 250 {
		t.Fatalf("finished %d of 250 across planner scale events", finished)
	}
	for _, s := range f.PlanHistory() {
		if s.Active < 1 || s.Target < 1 {
			t.Fatalf("planner sample %+v dropped below one replica", s)
		}
	}
	if _, in := f.ScaleEvents(); in == 0 {
		t.Fatal("planner never scaled in after the burst drained")
	}
}

// TestPlannerScalesOutUnderRamp: a ramping load must drive the planner's
// target up before the fleet saturates.
func TestPlannerScalesOutUnderRamp(t *testing.T) {
	f := MustNew(Config{
		Replicas: replicas(4, 8_000),
		Policy:   FutureHeadroom,
		Planner: &PlannerConfig{
			SLA: metrics.SLA{TTFT: 5, MTPOT: 1.0}, Min: 1, Max: 4, Interval: 4,
			Predictor: HoltPredictor, ActivationDelay: 1,
		},
	})
	// Three escalating phases.
	r := rng.New(23)
	var reqs []*request.Request
	id := int64(1)
	for phase, rate := range []float64{2, 8, 20} {
		part := workload.Build(workload.ShareGPT, r, 80, id, 512)
		workload.AssignPoissonArrivals(part, r, rate, float64(phase)*12)
		id += 80
		reqs = append(reqs, part...)
	}
	f.Serve(reqs, 1e9)
	if out, _ := f.ScaleEvents(); out == 0 {
		t.Fatal("planner never scaled out under a ramping load")
	}
	maxTarget := 0
	for _, s := range f.PlanHistory() {
		if s.Target > maxTarget {
			maxTarget = s.Target
		}
	}
	if maxTarget < 2 {
		t.Fatalf("planner target never exceeded one replica; history %+v", f.PlanHistory())
	}
}

// TestServeDrainsPreloadedEnginesWithoutStream: Serve(nil, deadline) must
// still drain work submitted directly to the replicas before the call —
// the original router's RunUntil semantics.
func TestServeDrainsPreloadedEnginesWithoutStream(t *testing.T) {
	reps := replicas(2, 20_000)
	for i := 0; i < 5; i++ {
		reps[0].Submit(request.New(int64(100+i), 200, 50, 100, 0))
	}
	f := MustNew(Config{Replicas: reps, Policy: RoundRobin})
	results := f.Serve(nil, 1e9)
	if len(results[0].Finished) != 5 {
		t.Fatalf("pre-loaded engine finished %d of 5 with an empty stream", len(results[0].Finished))
	}
}

func TestReplicaSecondsNoScaling(t *testing.T) {
	f := MustNew(Config{Replicas: replicas(3, 50_000), Policy: RoundRobin})
	results := f.Serve(poissonReqs(60, 20, 29), 1e9)
	var last float64
	for _, res := range results {
		if res.Duration > last {
			last = res.Duration
		}
	}
	want := 3 * f.Duration()
	got := f.ReplicaSeconds()
	if got <= 0 || got > want+1e-6 || got < want-1e-6 {
		t.Fatalf("replica-seconds %v, want %v (3 replicas × %.2fs)", got, want, f.Duration())
	}
}

func TestFleetReport(t *testing.T) {
	f := MustNew(Config{Replicas: replicas(2, 50_000), Policy: RoundRobin})
	results := f.Serve(poissonReqs(80, 20, 31), 1e9)
	rep := f.Report(results, metrics.SLASmall)
	if rep.Finished != 80 {
		t.Fatalf("report finished %d, want 80", rep.Finished)
	}
	if rep.Summary.Total != 80 {
		t.Fatalf("summary total %d, want 80", rep.Summary.Total)
	}
	if rep.Replicas != 2 || len(rep.RoutedCounts) != 2 {
		t.Fatalf("report replica shape wrong: %+v", rep)
	}
	if rep.RoutedCounts[0]+rep.RoutedCounts[1] != 80 {
		t.Fatalf("routed counts %v do not sum to 80", rep.RoutedCounts)
	}
	if rep.ReplicaSeconds <= 0 || rep.Duration <= 0 {
		t.Fatalf("report accounting empty: %+v", rep)
	}
}

func TestPolicyString(t *testing.T) {
	if RoundRobin.String() != "round-robin" || LeastLoaded.String() != "least-loaded" ||
		FutureHeadroom.String() != "future-headroom" {
		t.Fatal("policy strings wrong")
	}
	if Policy(9).String() == "" {
		t.Fatal("unknown policy string empty")
	}
}
