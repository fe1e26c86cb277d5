package main

// The scale scenario: long-trace replay throughput. A compressed "day" of
// traffic — diurnal rate curve, drifting workload mixture — streams through
// a large monolithic Past-Future fleet, -scale-repeat times on identical
// regenerated arrival streams. The run fails unless every repeat's report
// is byte-identical (the determinism certificate) and reports wall-clock
// and events/sec, optionally as BENCH_scale.json via -json.

import (
	"fmt"
	"runtime"
	"time"

	"github.com/lightllm-go/lightllm/internal/cluster"
	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/hw"
	"github.com/lightllm-go/lightllm/internal/rng"
	"github.com/lightllm-go/lightllm/internal/workload"
)

const (
	scaleReplicas = 96   // fleet width
	scalePeak     = 1200 // diurnal peak arrival rate, req/s
	scaleMaxNew   = 150  // output cap: keeps OSL ≈ 150, the day-trace calibration
)

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

// dayStream regenerates the replay's arrival stream: a diurnal rate curve
// (night trough, morning ramp, midday peak, evening shoulder) whose phase
// durations are solved so the curve emits exactly c.scaleRequests
// requests, and a workload mixture that drifts across the day —
// chat-dominated mornings, multimodal midday, reasoning-heavy evenings —
// with outputs capped at scaleMaxNew. Each call rebuilds an identical
// stream from the seeds.
func dayStream(c config) *workload.Stream {
	shape := []float64{0.30, 0.45, 0.70, 1.00, 0.95, 0.75, 0.50, 0.35}
	sum := 0.0
	for _, f := range shape {
		sum += f
	}
	phaseDur := float64(c.scaleRequests) / (scalePeak * sum)
	phases := make([]workload.RatePhase, len(shape))
	for i, f := range shape {
		phases[i] = workload.RatePhase{Rate: f * scalePeak, Duration: phaseDur}
	}
	third := c.scaleRequests / 3
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
		Lengths:  rng.New(c.seed + 1000),
		Arrivals: rng.New(c.seed + 2000),
		Phases:   phases,
		N:        c.scaleRequests,
		FirstID:  1,
		MaxNew:   scaleMaxNew,
	})
}

// runScale executes the replay c.scaleRepeat times on freshly regenerated
// identical streams, each through a fresh fixed fleet of mixed-role
// Past-Future replicas — no autoscaler, so every repeat's work is identical
// by construction. The reported wall-clock is the minimum — the least-noise
// estimator on a shared host — while the report equality check covers
// every repeat.
func runScale(c config) error {
	res := scaleResult{
		Requests: c.scaleRequests, Replicas: scaleReplicas,
		Capacity: capacity, PeakRate: scalePeak, Seed: c.seed,
		Repeat: c.scaleRepeat, NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		ReportsMatch: true,
	}
	var firstReport string
	for rep := 0; rep < c.scaleRepeat; rep++ {
		f := cluster.MustNew(cluster.Config{
			Replicas: pastFuture(scaleReplicas, c.seed, engine.Config{Perf: perfModel(hw.A100_80G), CapacityOverride: capacity}),
			Policy:   policy,
		})
		stream := dayStream(c)
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
		return fmt.Errorf("scale replay: a repeat's report diverges from the first — the replay is NOT deterministic")
	}
	fmt.Printf("day trace: %d requests over %.0fs simulated (%d finished, mean TTFT %.2fs), reports identical across %d repeats\n",
		res.Requests, res.SimSeconds, res.Finished, res.MeanTTFT, c.scaleRepeat)
	if c.jsonPath == "" {
		return nil
	}
	return writeJSONFile(c.jsonPath, res)
}
