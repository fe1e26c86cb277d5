package cluster

import (
	"fmt"
	"strings"
	"testing"

	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/hw"
	"github.com/lightllm-go/lightllm/internal/metrics"
	"github.com/lightllm-go/lightllm/internal/obs"
	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/rng"
)

// Replay determinism: a seeded scenario replayed on fresh engines must
// route, plan, shed, hand off and report identically. The benchmark's
// byte-identical-report gate and the reports_match of fleetsim's scale
// scenario rest on this; a map iteration or state shared across runs
// breaks it.

// TestSeamReplayDeterministic replays the full disaggregated pipeline
// (admission holds and sheds, per-pool SLA planners, KV handoffs over a
// real link) twice per seed.
func TestSeamReplayDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			first := runSeamScenario(seed, false, nil)
			if len(first.sheds) == 0 {
				t.Fatal("scenario shed nothing; no admission pressure exercised")
			}
			compareTraces(t, "replay", runSeamScenario(seed, false, nil), first)
		})
	}
}

// seamStorm is the conservation storm schedule (crashes mid-prefill,
// mid-decode and mid-hold, wire failures, a slowdown, plus a seeded
// stochastic storm) on the seam scenario.
func seamStorm(seed uint64, linkFail float64, faultSeed uint64) *FaultConfig {
	return &FaultConfig{
		Schedule: stormSchedule(seed), Recover: true,
		MaxTransferRetries: 3, RetryBackoff: 0.05,
		LinkFailRate: linkFail, Seed: faultSeed,
	}
}

// TestFaultStormReplayDeterministic: replay determinism with every fault
// event kind interleaved with steps, retries and recoveries.
func TestFaultStormReplayDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			compareTraces(t, "replay",
				runSeamScenario(seed, false, seamStorm(seed, 0.05, seed)),
				runSeamScenario(seed, false, seamStorm(seed, 0.05, seed)))
		})
	}
}

// TestFaultStormReplayChaos is the `make chaos` entry: storm replay
// determinism across the widened CHAOS_SEEDS sweep.
func TestFaultStormReplayChaos(t *testing.T) {
	for _, seed := range chaosSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			compareTraces(t, "replay",
				runSeamScenario(seed, false, seamStorm(seed, 0.08, seed^0x9e37)),
				runSeamScenario(seed, false, seamStorm(seed, 0.08, seed^0x9e37)))
		})
	}
}

// heteroOverloadTrace drives a monolithic heterogeneous fleet (A100 +
// A30 flavors) through an overload burst with admission shedding and the
// SLA planner — the hetero and overload modes the disaggregated seam
// scenario does not cover.
func heteroOverloadTrace(seed uint64) decisionTrace {
	var tr decisionTrace
	c := MustNewCluster(ClusterConfig{
		Pools: []Config{{
			Replicas: mixedReplicas(perfFor(hw.A100_80G), 2, perfFor(hw.A30), 2, 6_000, seed),
			Policy:   FutureHeadroom,
			Planner: &PlannerConfig{
				SLA: metrics.SLA{TTFT: 4, MTPOT: 1.0}, Min: 1, Max: 4,
				Interval: 5, Predictor: HoltPredictor, ActivationDelay: 1,
			},
			OnRoute: func(r *request.Request, rep int) {
				tr.routes = append(tr.routes, fmt.Sprintf("r%d req%d", rep, r.ID))
			},
		}},
		Admission: &AdmissionConfig{TTFTBudget: 4, Shed: true, Slack: 0.5},
	})
	results := c.Serve(poissonReqs(400, 120, seed), 1e9) // ~2x sustainable: overload
	for _, s := range c.ShedRequests() {
		tr.sheds = append(tr.sheds, fmt.Sprintf("req%d@%.9f", s.ID, s.ShedAt))
	}
	for _, s := range c.Pool(0).PlanHistory() {
		tr.plans = append(tr.plans, fmt.Sprintf("@%.3f target=%d active=%d targets=%v", s.At, s.Target, s.Active, s.Targets))
	}
	tr.report = fmt.Sprintf("%+v", c.Report(results, metrics.SLA{TTFT: 4, MTPOT: 1.0}))
	return tr
}

// TestHeteroOverloadReplayDeterministic: replay determinism on a
// heterogeneous monolithic fleet at 2x its sustainable rate — mixed
// flavors exercise speed-normalized routing and flavor-aware planning, and
// the overload keeps the admission queue and shed path hot.
func TestHeteroOverloadReplayDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			first := heteroOverloadTrace(seed)
			if len(first.sheds) == 0 {
				t.Fatal("overload scenario shed nothing")
			}
			compareTraces(t, "replay", heteroOverloadTrace(seed), first)
		})
	}
}

// TestRecorderReplayDeterministic: the full observability stream — spans,
// stage decompositions, wire spans, time series, the Perfetto export —
// must come out byte-identical on replay. The recorder sees every emission
// site in firing order, and its exports iterate maps, so this is the
// sharpest single determinism check.
func TestRecorderReplayDeterministic(t *testing.T) {
	dump := func(c *obs.Collector) string {
		var spans, pft strings.Builder
		if err := c.WriteSpanCSV(&spans); err != nil {
			t.Fatal(err)
		}
		if err := c.WritePerfetto(&pft); err != nil {
			t.Fatal(err)
		}
		return spans.String() + "\n====\n" + pft.String()
	}
	for seed := uint64(1); seed <= 2; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			firstC := obs.NewCollector(1)
			runSeamScenario(seed, false, nil, firstC)
			againC := obs.NewCollector(1)
			runSeamScenario(seed, false, nil, againC)
			if dump(againC) != dump(firstC) {
				t.Fatal("recorder streams diverge on replay")
			}
		})
	}
}

// TestChunkedReplayDeterministic: replay determinism through SLO-aware
// chunked prefill, with and without the crash storm.
func TestChunkedReplayDeterministic(t *testing.T) {
	chunk := engine.ChunkConfig{Enabled: true, Policy: engine.ChunkSLOAware, ChunkTokens: 512}
	for seed := uint64(1); seed <= 2; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			compareTraces(t, "replay",
				runChunkPin(seed, chunk, nil),
				runChunkPin(seed, chunk, nil))
			compareTraces(t, "storm replay",
				runChunkPin(seed, chunk, chunkStorm(seed)),
				runChunkPin(seed, chunk, chunkStorm(seed)))
		})
	}
}

// TestSharedSchedulerAccepted: replicas may share one scheduler instance;
// the event loop steps one replica at a time, so construction imposes no
// exclusive-ownership rule.
func TestSharedSchedulerAccepted(t *testing.T) {
	sched := core.MustNewPastFuture(core.PastFutureConfig{Reserved: 0.05, Rng: rng.New(1)})
	pm := testPerf()
	mk := func() *engine.Engine {
		return engine.MustNew(engine.Config{Perf: pm, Scheduler: sched, CapacityOverride: 8_000})
	}
	f, err := New(Config{Replicas: []*engine.Engine{mk(), mk()}})
	if err != nil {
		t.Fatalf("shared scheduler rejected: %v", err)
	}
	results := f.Serve(poissonReqs(40, 10, 3), 1e9)
	done := 0
	for _, r := range results {
		done += len(r.Finished)
	}
	if done != 40 {
		t.Fatalf("finished %d of 40 requests with a shared scheduler", done)
	}
}
