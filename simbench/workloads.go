package main

// The three workloads. Each is a deterministic discrete-event replay built
// from the seed alone: setup assembles the engines, fleet and inputs, and
// the returned replay function runs the simulation once and hands back its
// outcome. Everything reaches the simulator through exported functions.

import (
	"github.com/lightllm-go/lightllm/internal/cluster"
	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/faults"
	"github.com/lightllm-go/lightllm/internal/hw"
	"github.com/lightllm-go/lightllm/internal/metrics"
	"github.com/lightllm-go/lightllm/internal/model"
	"github.com/lightllm-go/lightllm/internal/obs"
	"github.com/lightllm-go/lightllm/internal/perf"
	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/rng"
	"github.com/lightllm-go/lightllm/internal/workload"
)

// workloadDef names one workload and knows how to set it up.
type workloadDef struct {
	name  string
	loop  string // "open" or "closed"
	setup func(seed uint64, tr *tracer) func() *outcome
}

var workloads = []workloadDef{
	{"day-replay", "open", setupDayReplay},
	{"session-storm", "open", setupSessionStorm},
	{"paper-closedloop", "closed", setupClosedLoop},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// outcome is what one replay leaves behind: every request in its terminal
// list, the per-replica engine results, and the roll-ups the metrics need.
type outcome struct {
	submitted int
	// Terminal lists. inflight counts requests still open at a closed-loop
	// deadline (always 0 for the open-loop fleets, which drain).
	finished, timedOut, failed, shed, lost []*request.Request
	inflight                               int

	results        []*engine.Result
	summary        metrics.Summary
	replicaSeconds float64
	events         int64 // cluster events handled (0 in the closed loop)

	fleet *cluster.Report // nil in the closed loop
	col   *obs.Collector  // non-nil when the workload attaches one
}

// llama7B is the single-GPU deployment every workload serves on.
func llama7B() *perf.Model {
	return perf.MustNew(perf.Config{Model: model.Llama2_7B, Cluster: hw.NewCluster(hw.A100_80G, 1)})
}

func pastFuture(seed uint64) core.Scheduler {
	return core.MustNewPastFuture(core.PastFutureConfig{Reserved: 0.05, Rng: rng.New(seed)})
}

// ---- day-replay --------------------------------------------------------

const (
	dayRequests = 96_000
	dayReplicas = 96
	dayCapacity = 10_000
	dayPeak     = 270.0 // req/s at the diurnal peak: the SLA operating point
	dayMaxNew   = 512
)

var daySLA = metrics.SLA{TTFT: 8, MTPOT: 1.5}

// dayStream is the streamed diurnal day trace: a night-trough → midday-peak
// → evening-shoulder rate curve whose phases are solved to emit exactly
// dayRequests requests, over a mixture that drifts from chat-heavy mornings
// through multimodal middays to reasoning-heavy evenings.
func dayStream(seed uint64) *workload.Stream {
	shape := []float64{0.30, 0.45, 0.70, 1.00, 0.95, 0.75, 0.50, 0.35}
	sum := 0.0
	for _, f := range shape {
		sum += f
	}
	phaseDur := float64(dayRequests) / (dayPeak * sum)
	phases := make([]workload.RatePhase, len(shape))
	for i, f := range shape {
		phases[i] = workload.RatePhase{Rate: f * dayPeak, Duration: phaseDur}
	}
	gen := &workload.Concat{
		Label: "day-trace",
		Parts: []workload.Generator{
			workload.Mixed{Label: "morning", Parts: []workload.Generator{workload.ShareGPT, workload.TextVQA(256)}, Weights: []float64{4, 1}},
			workload.Mixed{Label: "midday", Parts: []workload.Generator{workload.ShareGPT, workload.TextVQA(256), workload.ShareGPTO1}, Weights: []float64{2, 2, 1}},
			workload.Mixed{Label: "evening", Parts: []workload.Generator{workload.ShareGPT, workload.ShareGPTO1}, Weights: []float64{2, 3}},
		},
		PerPart: dayRequests / 3,
	}
	return workload.NewStream(workload.StreamConfig{
		Gen:      gen,
		Lengths:  rng.New(seed + 1000),
		Arrivals: rng.New(seed + 2000),
		Phases:   phases,
		N:        dayRequests,
		FirstID:  1,
		MaxNew:   dayMaxNew,
	})
}

func setupDayReplay(seed uint64, tr *tracer) func() *outcome {
	pm := llama7B()
	engines := make([]*engine.Engine, dayReplicas)
	for i := range engines {
		engines[i] = engine.MustNew(engine.Config{
			Perf:             pm,
			Scheduler:        tr.wrapScheduler(pastFuture(seed + uint64(i))),
			CapacityOverride: dayCapacity,
		})
		tr.hookEngine(engines[i])
	}
	f := cluster.MustNew(cluster.Config{
		Replicas: engines,
		Policy:   cluster.FutureHeadroom,
		OnRoute:  tr.onRoute(dayReplicas),
	})
	stream := dayStream(seed)
	return func() *outcome {
		out := &outcome{}
		next := func() *request.Request {
			var r *request.Request
			tr.span("workload.next", func() { r = stream.Next() })
			if r != nil {
				out.submitted++
			}
			return r
		}
		var results []*engine.Result
		tr.span("cluster.serve", func() { results = f.ServeStream(next, 1e9) })
		var rep cluster.Report
		tr.span("metrics.report", func() { rep = f.Report(results, daySLA) })
		out.fromFleet(results, rep, f.ShedRequests(), nil, f.EventsProcessed())
		return out
	}
}

// ---- session-storm -----------------------------------------------------

const (
	stormReplicas = 16
	stormCapacity = 40_000
	stormCalm     = 19.0  // req/s in the calm phases
	stormBurstX   = 2.5   // burst rate as a multiple of calm
	stormPhase    = 320.0 // simulated seconds per phase
)

var stormSLA = metrics.SLA{TTFT: 8, MTPOT: 1.5}

// stormTraffic synthesizes multi-turn chat sessions (a 256-token system
// prompt shared by 70% of sessions, continuation probability 0.75, 64-token
// blocks) arriving calm → ramp → 2.5× burst → calm.
func stormTraffic(seed uint64, tr *tracer) []*request.Request {
	gen, err := workload.NewSessions(workload.SessionsConfig{
		Base:               workload.ShareGPT,
		BlockTokens:        64,
		SystemPromptTokens: 256,
		SharedSystemRatio:  0.7,
		TurnProb:           0.75,
		MaxTurns:           8,
		Cooldown:           2,
		MaxInputTokens:     3000,
	})
	if err != nil {
		panic(err)
	}
	burst := stormCalm * stormBurstX
	phases := []workload.RatePhase{{Rate: stormCalm, Duration: stormPhase}}
	phases = append(phases, workload.Ramp(stormCalm, burst, stormPhase, 9)...)
	phases = append(phases,
		workload.RatePhase{Rate: burst, Duration: stormPhase},
		workload.RatePhase{Rate: stormCalm, Duration: stormPhase},
	)
	var reqs []*request.Request
	tr.span("workload.build", func() {
		r := rng.New(seed + 1000)
		reqs = workload.Build(gen, r, workload.PhasedCount(phases), 1, 512)
		workload.AssignPhasedArrivals(reqs, r, phases, 0)
	})
	return reqs
}

// stormFaults lands a crash pair in the middle of the burst phase; both
// replicas come back after their repair time.
func stormFaults() faults.Script {
	t0 := 2*stormPhase + stormPhase/3
	return faults.Script{
		{At: t0, Kind: faults.Crash, Pool: 0, Replica: 0, Duration: 20},
		{At: t0 + 8, Kind: faults.Crash, Pool: 0, Replica: 1, Duration: 20},
	}
}

func setupSessionStorm(seed uint64, tr *tracer) func() *outcome {
	pm := llama7B()
	engines := make([]*engine.Engine, stormReplicas)
	for i := range engines {
		engines[i] = engine.MustNew(engine.Config{
			Perf:             pm,
			Scheduler:        tr.wrapScheduler(pastFuture(seed + uint64(i))),
			CapacityOverride: stormCapacity,
			QueueTimeout:     stormSLA.TTFT,
			PrefixCache: engine.PrefixCacheConfig{
				Enabled: true, BlockTokens: 64, OffloadCapacityTokens: -1,
			},
		})
		tr.hookEngine(engines[i])
	}
	col := obs.NewCollector(10)
	c, err := cluster.NewCluster(cluster.ClusterConfig{
		Pools: []cluster.Config{{
			Replicas:       engines,
			Policy:         cluster.FutureHeadroom,
			AffinityWeight: 0.5,
			Planner: &cluster.PlannerConfig{
				SLA: stormSLA, Min: 2, Max: stormReplicas,
				Predictor: cluster.HoltPredictor, ActivationDelay: 5, Spare: 1,
			},
			OnRoute: tr.onRoute(stormReplicas),
		}},
		Admission: &cluster.AdmissionConfig{TTFTBudget: stormSLA.TTFT, Shed: true, Slack: 1.5},
		Faults: &cluster.FaultConfig{
			Schedule: stormFaults(), Recover: true,
		},
		Recorder: col,
	})
	if err != nil {
		panic(err)
	}
	reqs := stormTraffic(seed, tr)
	return func() *outcome {
		out := &outcome{col: col, submitted: len(reqs)}
		var results []*engine.Result
		tr.span("cluster.serve", func() { results = c.Serve(reqs, 1e9) })
		var rep cluster.Report
		tr.span("metrics.report", func() { rep = c.Report(results, stormSLA) })
		out.fromFleet(results, rep, c.ShedRequests(), c.LostRequests(), c.EventsProcessed())
		return out
	}
}

// ---- paper-closedloop --------------------------------------------------

const (
	closedClients  = 50
	closedMaxNew   = 8192
	closedDuration = 60000.0 // simulated seconds
	closedHistory  = 500     // warm-start history samples
)

var closedSLA = metrics.SLASmall

// timedGen times every draw the closed-loop clients make, so request
// synthesis shows as workload time in the traced run.
type timedGen struct {
	workload.Generator
	tr *tracer
}

func (g timedGen) Sample(r *rng.RNG) (in, out int) {
	g.tr.span("workload.sample", func() { in, out = g.Generator.Sample(r) })
	return in, out
}

func setupClosedLoop(seed uint64, tr *tracer) func() *outcome {
	gen := workload.ShareGPTO1
	hist := rng.New(seed + 99)
	seedHist := make([]int, closedHistory)
	for i := range seedHist {
		_, o := gen.Sample(hist)
		seedHist[i] = min(o, closedMaxNew)
	}
	eng := engine.MustNew(engine.Config{
		Perf:         llama7B(),
		Scheduler:    tr.wrapScheduler(pastFuture(seed)),
		QueueTimeout: closedSLA.TTFT,
		SeedHistory:  seedHist,
	})
	tr.hookEngine(eng)
	var g workload.Generator = gen
	if tr != nil {
		g = timedGen{gen, tr}
	}
	cl := workload.NewClosedLoop(eng, g, rng.New(seed+7), closedClients, closedMaxNew, 0, closedDuration)
	return func() *outcome {
		out := &outcome{}
		tr.span("cluster.serve", func() {
			for eng.Clock() < closedDuration {
				var more bool
				tr.span("engine.step", func() { more = eng.Step() })
				if !more {
					break
				}
			}
		})
		res := eng.Snapshot()
		tr.span("metrics.report", func() {
			out.summary = metrics.Summarize(res.Finished, closedSLA, 0, res.Duration)
			out.summary.AddTimedOut(res.TimedOut, 0, res.Duration)
		})
		out.submitted = cl.Submitted()
		out.results = []*engine.Result{res}
		out.finished, out.timedOut, out.failed = res.Finished, res.TimedOut, res.Failed
		out.replicaSeconds = res.Duration
		open := 0
		eng.ForEachRunning(func(*request.Request) { open++ })
		eng.ForEachQueued(func(*request.Request) { open++ })
		out.inflight = out.submitted - len(res.Finished) - len(res.TimedOut) - len(res.Failed)
		if out.inflight < open || out.inflight > closedClients {
			out.inflight = -1 // fails the conservation gate
		}
		return out
	}
}

// ---- shared roll-up ----------------------------------------------------

// fromFleet fills the outcome from a drained fleet's results and report.
func (o *outcome) fromFleet(results []*engine.Result, rep cluster.Report, shed, lost []*request.Request, events int64) {
	o.results = results
	for _, res := range results {
		o.finished = append(o.finished, res.Finished...)
		o.timedOut = append(o.timedOut, res.TimedOut...)
		o.failed = append(o.failed, res.Failed...)
	}
	o.shed, o.lost = shed, lost
	o.summary = rep.Summary
	o.replicaSeconds = rep.ReplicaSeconds
	o.events = events
	o.fleet = &rep
	// A fleet replay drains: anything neither terminal nor counted here
	// was dropped on the floor, which the conservation gate reports.
	o.inflight = 0
}
