package main

// The -scale mode: long-trace replay throughput. A compressed "day" of
// traffic — diurnal rate curve, drifting workload mixture — streams through
// a large monolithic Past-Future fleet, -scale-repeat times on identical
// regenerated arrival streams. The run hard-fails unless every repeat's
// report is byte-identical (the determinism certificate) and reports
// wall-clock and events/sec, optionally as BENCH_scale.json via -json.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/lightllm-go/lightllm/internal/cluster"
	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/hw"
	"github.com/lightllm-go/lightllm/internal/metrics"
	"github.com/lightllm-go/lightllm/internal/model"
	"github.com/lightllm-go/lightllm/internal/perf"
	"github.com/lightllm-go/lightllm/internal/rng"
	"github.com/lightllm-go/lightllm/internal/workload"
)

// scaleOptions parameterizes the -scale replay.
type scaleOptions struct {
	requests int     // day-trace length; the acceptance runs use ≥1M
	replicas int     // fleet width
	capacity int     // per-replica KV capacity override, tokens
	peak     float64 // diurnal peak arrival rate, req/s
	repeat   int     // timing repeats; wall-clock is the min
	seed     uint64
	maxNew   int // output cap: keeps OSL ≈ 150, the day-trace calibration
}

// scaleResult is the BENCH_scale.json payload.
type scaleResult struct {
	Requests int     `json:"requests"`
	Replicas int     `json:"replicas"`
	Capacity int     `json:"capacity_tokens"`
	PeakRate float64 `json:"peak_rate_req_s"`
	Seed     uint64  `json:"seed"`
	Repeat   int     `json:"timing_repeats"`
	// NumCPU and GoMaxProcs record the host shape: wall-clock numbers
	// compare only across runs on the same shape.
	NumCPU     int     `json:"num_cpu"`
	GoMaxProcs int     `json:"gomaxprocs"`
	SimSeconds float64 `json:"sim_duration_s"`
	Finished   int     `json:"finished"`
	MeanTTFT   float64 `json:"mean_ttft_s"`
	// ReportsMatch certifies determinism: every repeat's report was
	// byte-identical to the first.
	ReportsMatch bool    `json:"reports_match"`
	WallSeconds  float64 `json:"wall_s"` // min over the repeats
	Events       int64   `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// dayStream regenerates the -scale arrival stream: a diurnal rate curve
// (night trough, morning ramp, midday peak, evening shoulder) whose phase
// durations are solved so the curve emits exactly opts.requests requests,
// and a workload mixture that drifts across the day — chat-dominated
// mornings, multimodal midday, reasoning-heavy evenings — with outputs
// capped at maxNew. Each call rebuilds an identical stream from the seeds.
func dayStream(opts scaleOptions) *workload.Stream {
	shape := []float64{0.30, 0.45, 0.70, 1.00, 0.95, 0.75, 0.50, 0.35}
	sum := 0.0
	for _, f := range shape {
		sum += f
	}
	phaseDur := float64(opts.requests) / (opts.peak * sum)
	phases := make([]workload.RatePhase, len(shape))
	for i, f := range shape {
		phases[i] = workload.RatePhase{Rate: f * opts.peak, Duration: phaseDur}
	}
	third := opts.requests / 3
	gen := &workload.Concat{
		Label: "day-trace",
		Parts: []workload.Generator{
			workload.Mixed{Label: "morning", Parts: []workload.Generator{workload.ShareGPT, workload.TextVQA(256)}, Weights: []float64{4, 1}},
			workload.Mixed{Label: "midday", Parts: []workload.Generator{workload.ShareGPT, workload.TextVQA(256), workload.ShareGPTO1}, Weights: []float64{2, 2, 1}},
			workload.Mixed{Label: "evening", Parts: []workload.Generator{workload.ShareGPT, workload.ShareGPTO1}, Weights: []float64{2, 3}},
		},
		PerPart: third,
	}
	return workload.NewStream(workload.StreamConfig{
		Gen:      gen,
		Lengths:  rng.New(opts.seed + 1000),
		Arrivals: rng.New(opts.seed + 2000),
		Phases:   phases,
		N:        opts.requests,
		FirstID:  1,
		MaxNew:   opts.maxNew,
	})
}

// buildScaleFleet assembles the replay fleet: mixed-role Past-Future
// replicas, per-replica scheduler RNG streams, no autoscaler — a fixed
// fleet keeps every repeat's work identical by construction.
func buildScaleFleet(opts scaleOptions) *cluster.Fleet {
	pm := perf.MustNew(perf.Config{Model: model.Llama2_7B, Cluster: hw.NewCluster(hw.A100_80G, 1)})
	engines := make([]*engine.Engine, opts.replicas)
	for i := range engines {
		engines[i] = engine.MustNew(engine.Config{
			Perf: pm,
			Scheduler: core.MustNewPastFuture(core.PastFutureConfig{
				Reserved: 0.05, Rng: rng.New(opts.seed + uint64(i)),
			}),
			CapacityOverride: opts.capacity,
		})
	}
	f, err := cluster.New(cluster.Config{
		Replicas: engines,
		Policy:   cluster.FutureHeadroom,
	})
	if err != nil {
		fatal(err)
	}
	return f
}

// runScale executes the replay opts.repeat times on freshly regenerated
// identical streams and returns the measurements. The reported wall-clock
// is the minimum — the least-noise estimator on a shared host — while the
// report equality check covers every repeat.
func runScale(opts scaleOptions) scaleResult {
	sla := metrics.SLA{TTFT: 8, MTPOT: 1.5}
	if opts.repeat < 1 {
		opts.repeat = 1
	}

	res := scaleResult{
		Requests: opts.requests, Replicas: opts.replicas,
		Capacity: opts.capacity, PeakRate: opts.peak, Seed: opts.seed,
		Repeat: opts.repeat, NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		ReportsMatch: true,
	}
	var firstReport string
	for rep := 0; rep < opts.repeat; rep++ {
		f := buildScaleFleet(opts)
		stream := dayStream(opts)
		start := time.Now()
		results := f.ServeStream(stream.Next, 1e9)
		wall := time.Since(start).Seconds()
		report := f.Report(results, sla)
		repStr := fmt.Sprintf("%+v", report)

		if rep == 0 || wall < res.WallSeconds {
			res.WallSeconds, res.Events = wall, f.EventsProcessed()
		}
		if rep == 0 {
			firstReport = repStr
			res.SimSeconds = report.Duration
			res.Finished = report.Finished
			res.MeanTTFT = report.Summary.MeanTTFT
		} else if repStr != firstReport {
			res.ReportsMatch = false
		}
		fmt.Printf("repeat %d  wall %8.2fs  %12d events  %11.0f ev/s\n",
			rep+1, wall, f.EventsProcessed(), float64(f.EventsProcessed())/wall)
	}
	if res.WallSeconds > 0 {
		res.EventsPerSec = float64(res.Events) / res.WallSeconds
	}
	if !res.ReportsMatch {
		fatal(fmt.Errorf("scale replay: a repeat's report diverges from the first — the replay is NOT deterministic"))
	}
	fmt.Printf("day trace: %d requests over %.0fs simulated (%d finished, mean TTFT %.2fs), reports identical across %d repeats\n",
		res.Requests, res.SimSeconds, res.Finished, res.MeanTTFT, opts.repeat)
	return res
}

// writeScaleJSON writes BENCH_scale.json.
func writeScaleJSON(path string, res scaleResult) {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Println("wrote", path)
}
