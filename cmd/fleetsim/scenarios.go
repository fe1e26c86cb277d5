package main

import (
	"fmt"
	"strings"

	"github.com/lightllm-go/lightllm/internal/cluster"
	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/faults"
	"github.com/lightllm-go/lightllm/internal/hw"
	"github.com/lightllm-go/lightllm/internal/kv"
	"github.com/lightllm-go/lightllm/internal/metrics"
	"github.com/lightllm-go/lightllm/internal/model"
	"github.com/lightllm-go/lightllm/internal/perf"
	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/rng"
	"github.com/lightllm-go/lightllm/internal/workload"
)

// scenario is one experiment: arms that serve the same workload on fleets
// differing in one mechanism, run in order, and the claim the run must
// reproduce.
type scenario struct {
	name string
	// std marks the scenarios the default run records in BENCH_fleet.json.
	std bool
	// minReplicas is the smallest -replicas the scenario's fleets can be
	// built from.
	minReplicas int
	arms        []arm
	// fill derives the row fields that compare one arm with another.
	fill func(rows []row)
	// table prints the scenario's own columns under the standard table.
	table func(rows []row)
	// claim returns an error unless the rows, in arm order, reproduce the
	// scenario's documented result.
	claim func(rows []row) error
	// solo runs a scenario that writes its own report instead of rows; it
	// runs alone.
	solo func(c config) error
}

// arm is one fleet configuration of a scenario: run serves the scenario's
// workload through it and fills the row (the runner sets Mode and Policy).
type arm struct {
	name string
	run  func(c config) row
}

var scenarios = []scenario{
	// Predictive scaling (Holt forecasts + TTFT/TPOT interpolation) meets
	// the TTFT target with fewer replica-seconds than the reactive
	// high/low-water baseline.
	{name: "autoscale", std: true, claim: autoscaleClaim, arms: []arm{
		{"reactive", reactive},
		{"predictive-holt", predictive},
	}},
	// The same ramp through a Dynamo-style disaggregated cluster.
	{name: "disagg", std: true, minReplicas: 2, arms: []arm{
		{"disaggregated-holt", disaggSetup{peak: burstRate}.run},
	}},
	// Graceful degradation: the ramp peaks at 2× the burst rate, beyond
	// what the capped fleet serves, and the disaggregated cluster runs
	// route-on-arrival, an admission hold without shedding, and full
	// deadline-aware shedding.
	{name: "overload", std: true, minReplicas: 2, claim: overloadClaim, arms: []arm{
		{"overload-noshed", disaggSetup{peak: overloadX * burstRate, lanes: true}.run},
		{"overload-admit", disaggSetup{peak: overloadX * burstRate, lanes: true,
			admission: &cluster.AdmissionConfig{TTFTBudget: sla.TTFT, Slack: slack}}.run},
		{"overload-shed", disaggSetup{peak: overloadX * burstRate, lanes: true, admission: shedAdmission}.run},
	}},
	// A mixed premium + economy fleet under the cost-aware planner, which
	// fills demand with the cheapest flavor whose interpolated latency
	// still meets the SLA, against the premium flavor alone.
	{name: "hetero", std: true, claim: heteroClaim, arms: []arm{
		{"hetero-cost", heteroCost},
		{"hetero-premium", heteroPremium},
	}},
	// A crash storm mid-burst on a disaggregated cluster with scale-out
	// headroom: no faults (the ceiling), the storm with no recovery story,
	// and the storm with re-admission, transfer retries and N+1 spares.
	// All three share the shedding pipeline, so the only delta is the
	// fault and recovery configuration.
	{name: "faults", std: true, minReplicas: 2, claim: faultsClaim, arms: []arm{
		{"faults-none", disaggSetup{double: true, peak: burstRate, lanes: true, admission: shedAdmission}.run},
		{"faults-norecover", disaggSetup{double: true, peak: burstRate, lanes: true, admission: shedAdmission, storm: true}.run},
		{"faults-recover", disaggSetup{double: true, peak: burstRate, lanes: true, admission: shedAdmission, storm: true, recover: true}.run},
	}},
	{name: "multiturn", std: true, arms: multiturnArms(0, 0.25, 0.5, 0.75),
		fill: fillPrefillSavings, table: printMultiturn, claim: multiturnClaim},
	{name: "longctx", std: true, arms: longctxArms(0.02, 0.05, 0.10),
		table: printLongctx, claim: longctxClaim},
	// The A/B of the shedding reserve: overload-shed with the reserve
	// tracking observed engine-side admission waits instead of the static
	// slack. Run it next to overload (-scenario overload,dynshed).
	{name: "dynshed", minReplicas: 2, arms: []arm{
		{"overload-dynshed", disaggSetup{peak: overloadX * burstRate, lanes: true,
			admission: &cluster.AdmissionConfig{TTFTBudget: sla.TTFT, Shed: true, Slack: slack, DecodeMaxProbe: 0.9, DynamicSlack: true}}.run},
	}},
	{name: "scale", solo: runScale},
}

// The bursty ramp (calm, ramp, burst, calm) that the autoscale, disagg,
// overload, hetero and faults scenarios serve, and the fleet they serve it
// on.
const (
	baseRate       = 3.0    // calm-phase arrival rate, req/s
	burstRate      = 22.0   // burst-phase arrival rate, req/s
	overloadX      = 2.0    // overload ramps peak at overloadX × burstRate
	capacity       = 10_000 // per-replica KV capacity, tokens
	interval       = 10.0   // autoscaler and planner evaluation interval, s
	delay          = 5.0    // replica activation delay, s
	headroom       = 0.8    // planner utilization target
	decodeHeadroom = 0.7    // the decode pool's target: decode queueing costs MTPOT
	linkGBps       = 64.0   // KV-transfer link bandwidth, GB/s
	linkLatency    = 0.002  // KV-transfer link latency, s
	slack          = 1.5    // admission reserve for engine-side waits the floor cannot see, s
	policy         = cluster.FutureHeadroom
)

var (
	sla = metrics.SLA{TTFT: 8, MTPOT: 1.5}
	// shedAdmission is full deadline-aware shedding, the pipeline the
	// fault trio's recovery re-admits orphans through.
	shedAdmission = &cluster.AdmissionConfig{TTFTBudget: sla.TTFT, Shed: true, Slack: slack, DecodeMaxProbe: 0.9}
)

func autoscaleClaim(rows []row) error {
	reactive, predictive := rows[0], rows[1]
	if predictive.P99TTFT > sla.TTFT {
		return fmt.Errorf("%s served p99 TTFT %.2fs exceeds the %gs SLA", predictive.Mode, predictive.P99TTFT, sla.TTFT)
	}
	if predictive.ReplicaSeconds >= reactive.ReplicaSeconds {
		return fmt.Errorf("%s used %.0f replica-seconds, not fewer than %s's %.0f",
			predictive.Mode, predictive.ReplicaSeconds, reactive.Mode, reactive.ReplicaSeconds)
	}
	return nil
}

func overloadClaim(rows []row) error {
	shed := rows[2]
	if shed.P99TTFT > sla.TTFT {
		return fmt.Errorf("%s served p99 TTFT %.2fs exceeds the %gs SLA", shed.Mode, shed.P99TTFT, sla.TTFT)
	}
	for _, r := range rows[:2] {
		if shed.GoodputReq <= r.GoodputReq {
			return fmt.Errorf("%s delivered %.2f SLA-met completions/s, not more than %s's %.2f",
				shed.Mode, shed.GoodputReq, r.Mode, r.GoodputReq)
		}
	}
	return nil
}

func heteroClaim(rows []row) error {
	mixed, premium := rows[0], rows[1]
	if mixed.CostSeconds >= premium.CostSeconds {
		return fmt.Errorf("%s cost %.0f cost-seconds, not fewer than %s's %.0f",
			mixed.Mode, mixed.CostSeconds, premium.Mode, premium.CostSeconds)
	}
	return nil
}

func faultsClaim(rows []row) error {
	norecover, recovered := rows[1], rows[2]
	if recovered.GoodputReq <= norecover.GoodputReq {
		return fmt.Errorf("%s delivered %.2f SLA-met completions/s, not more than %s's %.2f",
			recovered.Mode, recovered.GoodputReq, norecover.Mode, norecover.GoodputReq)
	}
	if recovered.P99TTFT >= norecover.P99TTFT {
		return fmt.Errorf("%s served p99 TTFT %.2fs, not below %s's %.2fs",
			recovered.Mode, recovered.P99TTFT, norecover.Mode, norecover.P99TTFT)
	}
	return nil
}

// serving is what a row needs of a fleet or a disaggregated cluster.
type serving interface {
	Serve(reqs []*request.Request, deadline float64) []*engine.Result
	Report(results []*engine.Result, sla metrics.SLA) cluster.Report
}

// serve runs reqs to completion on s and fills the row fields every arm
// reports.
func serve(s serving, reqs []*request.Request) (row, cluster.Report, []*engine.Result) {
	results := s.Serve(reqs, 1e9)
	rep := s.Report(results, sla)
	r := row{
		Finished:       rep.Finished,
		SLAAttainment:  rep.Summary.SLARate(),
		MeanTTFT:       rep.Summary.MeanTTFT,
		P99TTFT:        rep.Summary.P99TTFT,
		Goodput:        rep.Summary.Goodput,
		GoodputReq:     rep.Summary.GoodCompletionRate(),
		ReplicaSeconds: rep.ReplicaSeconds,
		CostSeconds:    rep.CostSeconds,
		CostPerGood:    rep.Summary.CostPerGoodCompletion(),
		ScaleOuts:      rep.ScaleOuts,
		ScaleIns:       rep.ScaleIns,
		Duration:       rep.Duration,
	}
	if rep.Summary.Total > 0 {
		r.TTFTAttainment = 1 - float64(rep.Summary.ViolatedTTFT)/float64(rep.Summary.Total)
	}
	return r, rep, results
}

// perfModel is Llama2-7B on one GPU of the given flavor.
func perfModel(gpu hw.GPU) *perf.Model {
	return perf.MustNew(perf.Config{Model: model.Llama2_7B, Cluster: hw.NewCluster(gpu, 1)})
}

// pastFuture builds n Past-Future replicas from the template, replica i's
// scheduler seeded with seed+i (callers offset seed to separate replica
// groups).
func pastFuture(n int, seed uint64, template engine.Config) []*engine.Engine {
	out := make([]*engine.Engine, n)
	for i := range out {
		cfg := template
		cfg.Scheduler = core.MustNewPastFuture(core.PastFutureConfig{
			Reserved: 0.05, Rng: rng.New(seed + uint64(i)),
		})
		out[i] = engine.MustNew(cfg)
	}
	return out
}

func planner(replicas int, target float64) *cluster.PlannerConfig {
	return &cluster.PlannerConfig{
		SLA: sla, Min: 1, Max: replicas,
		Interval: interval, Predictor: cluster.HoltPredictor,
		ActivationDelay: delay, Headroom: target,
	}
}

// burstyWorkload synthesizes four ShareGPT phases: calm, ramp, burst (at
// peak req/s), calm. The linear ramp is what separates trend-following
// predictors from reactive thresholds: load builds over several planner
// intervals before the peak.
func burstyWorkload(c config, peak float64) []*request.Request {
	r := rng.New(c.seed + 1000)
	steps := max(int(c.phase/10), 3)
	phases := []workload.RatePhase{{Rate: baseRate, Duration: c.phase}}
	phases = append(phases, workload.Ramp(baseRate, peak, c.phase, steps)...)
	phases = append(phases,
		workload.RatePhase{Rate: peak, Duration: c.phase},
		workload.RatePhase{Rate: baseRate, Duration: c.phase},
	)
	reqs := workload.Build(workload.ShareGPT, r, workload.PhasedCount(phases), 1, 512)
	workload.AssignPhasedArrivals(reqs, r, phases, 0)
	return reqs
}

func a100Fleet(c config) []*engine.Engine {
	return pastFuture(c.replicas, c.seed, engine.Config{Perf: perfModel(hw.A100_80G), CapacityOverride: capacity})
}

func reactive(c config) row {
	f := cluster.MustNewCluster(cluster.ClusterConfig{
		Pools: []cluster.Config{{
			Replicas: a100Fleet(c), Policy: policy,
			Scale: &cluster.AutoScale{
				Min: 1, Max: c.replicas, HighWater: 0.85, LowWater: 0.35,
				ActivationDelay: delay, EvalInterval: interval,
			},
		}},
		Recorder: c.rec,
	})
	r, _, _ := serve(f, burstyWorkload(c, burstRate))
	return r
}

func predictiveFleet(c config) *cluster.Cluster {
	return cluster.MustNewCluster(cluster.ClusterConfig{
		Pools: []cluster.Config{{
			Replicas: a100Fleet(c), Policy: policy, Planner: planner(c.replicas, headroom),
		}},
		Recorder: c.rec,
	})
}

func predictive(c config) row {
	f := predictiveFleet(c)
	r, _, _ := serve(f, burstyWorkload(c, burstRate))
	r.plan = f.Pool(0).PlanHistory()
	return r
}

// heteroCost serves the ramp on -replicas premium A100-80G replicas plus
// twice as many RTX-4090 economy replicas under the cost-aware planner.
// Its targets are speed-aware: the fastest flavor runs at headroom and
// slower flavors keep the same absolute slack time.
func heteroCost(c config) row {
	// The economy seed offset is disjoint from the premium engines and
	// from the workload generator (seed+1000), so no scheduler shares an
	// RNG stream with the stream that generated its load.
	engines := append(a100Fleet(c), pastFuture(2*c.replicas, c.seed+1_000_000,
		engine.Config{Perf: perfModel(hw.RTX4090), CapacityOverride: capacity})...)
	plan := planner(len(engines), headroom)
	plan.SpeedAware = true
	f := cluster.MustNewCluster(cluster.ClusterConfig{
		Pools:    []cluster.Config{{Replicas: engines, Policy: policy, Planner: plan}},
		Recorder: c.rec,
	})
	r, _, _ := serve(f, burstyWorkload(c, burstRate))
	r.Flavors, r.plan = flavorMix(f.Pool(0)), f.Pool(0).PlanHistory()
	return r
}

// heteroPremium is the predictive fleet — same engines, seeds and planner
// — reported on the cost axis.
func heteroPremium(c config) row {
	f := predictiveFleet(c)
	r, _, _ := serve(f, burstyWorkload(c, burstRate))
	r.Flavors = flavorMix(f.Pool(0))
	return r
}

func flavorMix(p *cluster.Pool) string {
	var parts []string
	for _, fi := range p.Flavors() {
		parts = append(parts, fmt.Sprintf("%d×%s", fi.Replicas, fi.Name))
	}
	return strings.Join(parts, " + ")
}

// disaggSetup is one arm on the disaggregated cluster: a prefill-only pool
// (current-usage admission — prompts vacate at the end of their own
// iteration) sized by the planner's TTFT interpolation, and a decode-only
// pool (Past-Future admission) sized by its TPOT interpolation, joined by a
// finite-bandwidth KV-transfer link.
type disaggSetup struct {
	// double runs twice -replicas: the storm needs headroom above the
	// burst-sized fleet for spare capacity to exist.
	double bool
	peak   float64 // ramp peak rate, req/s
	// lanes gives every decode replica its own link ingress lane, so the
	// router can price per-destination wire queueing, and reports the
	// shed accounting: the overload and fault trios compare admission
	// pipelines on this one link model. The plain disaggregated arm,
	// the only one without lanes, records its decode planner for -csv.
	lanes     bool
	admission *cluster.AdmissionConfig
	storm     bool // inject the crash storm
	recover   bool // recover from it, with N+1 decode spares
}

func (d disaggSetup) run(c config) row {
	n := c.replicas
	if d.double {
		n *= 2
	}
	pm := perfModel(hw.A100_80G)
	prefill := make([]*engine.Engine, max(n/4, 1))
	for i := range prefill {
		prefill[i] = engine.MustNew(engine.Config{
			Perf:             pm,
			Scheduler:        core.MustNewAggressive(0.95),
			Role:             engine.RolePrefillOnly,
			CapacityOverride: capacity,
		})
	}
	decode := pastFuture(n-len(prefill), c.seed, engine.Config{Perf: pm, Role: engine.RoleDecodeOnly, CapacityOverride: capacity})
	link := kv.MustNewLink(linkGBps*1e9, linkLatency)
	link.PerDestination = d.lanes
	decodePlan := planner(len(decode), decodeHeadroom)
	var flt *cluster.FaultConfig
	if d.storm {
		flt = &cluster.FaultConfig{Schedule: faultStorm(c.phase), LinkFailRate: 0.02, Seed: c.seed}
		if d.recover {
			flt.Recover = true
			flt.MaxTransferRetries, flt.RetryBackoff, flt.RetryBackoffCap = 3, 0.05, 0.4
			decodePlan.Spare = 2
		}
	}
	cl := cluster.MustNewCluster(cluster.ClusterConfig{
		Pools: []cluster.Config{
			{Role: engine.RolePrefillOnly, Replicas: prefill, Policy: policy, Planner: planner(len(prefill), headroom)},
			{Role: engine.RoleDecodeOnly, Replicas: decode, Policy: policy, Planner: decodePlan},
		},
		Link:      link,
		Admission: d.admission,
		Faults:    flt,
		Recorder:  c.rec,
	})
	reqs := burstyWorkload(c, d.peak)
	r, rep, _ := serve(cl, reqs)
	r.PrefillReplicas, r.DecodeReplicas = rep.Pools[0].Replicas, rep.Pools[1].Replicas
	r.PrefillReplicaSeconds, r.DecodeReplicaSeconds = rep.Pools[0].ReplicaSeconds, rep.Pools[1].ReplicaSeconds
	r.Handoffs, r.MeanTransferDelay = rep.Handoffs, rep.MeanTransferDelay
	if d.lanes {
		r.Arrivals = len(reqs)
		r.Shed, r.ShedFront, r.ShedBoundary = rep.Shed, rep.ShedFront, rep.ShedBoundary
		r.ShedRate = float64(rep.Shed) / float64(len(reqs))
	} else {
		r.plan = cl.Pool(1).PlanHistory() // the decode pool dominates cost
	}
	s := rep.Summary
	r.Crashes, r.Orphaned, r.Recovered, r.ReShed, r.Lost = s.Crashes, s.Orphaned, s.Recovered, s.ReShed, s.Lost
	r.TransferRetries, r.RePrefills, r.MTTR = s.TransferRetries, s.RePrefills, s.MeanTimeToRecover
	return r
}

// faultStorm scripts the crash storm, anchored at the burst phase
// (t0 = 2×phase): two of the decode replicas crash back-to-back for tens of
// seconds, the prefill replica follows, six KV deliveries die on the wire,
// and a surviving decode replica runs 1.6× slow for 20s.
func faultStorm(phase float64) faults.Script {
	t0 := 2 * phase
	return faults.Script{
		{At: t0 + 5, Kind: faults.Crash, Pool: 1, Replica: 0, Duration: 25},
		{At: t0 + 10, Kind: faults.Crash, Pool: 1, Replica: 1, Duration: 25},
		{At: t0 + 15, Kind: faults.Crash, Pool: 0, Replica: 0, Duration: 10},
		{At: t0 + 20, Kind: faults.LinkFailure, Count: 6},
		{At: t0 + 30, Kind: faults.Slowdown, Pool: 1, Replica: 2, Duration: 20, Factor: 1.6},
	}
}
