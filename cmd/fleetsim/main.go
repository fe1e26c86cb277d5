// Command fleetsim runs the fleet-scale scenarios of the event-driven
// simulator. A scenario serves one workload through several arms — fleets
// that differ in one mechanism — reports fleet-level SLA attainment and
// provisioning cost per arm, and checks the scenario's documented claim: a
// run that does not reproduce it exits 1.
//
//	fleetsim -json BENCH_fleet.json        # the standard set: the bench record
//	fleetsim -scenario overload,dynshed    # named scenarios, in the given order
//	fleetsim -scenario faults -trace t.json -spans s.csv -timeseries ts.csv
//	fleetsim -scenario scale -scale-requests 1000000 -scale-repeat 2 -json BENCH_scale.json
//
// The scenarios, their arms, their tuning and their claims live in the
// table in scenarios.go. Only the fleet size, the ramp phase length, the
// seed, the day-trace size and the output paths are flags.
//
// -trace/-timeseries/-spans/-requests attach an observability collector
// (internal/obs) to the run and export it: a Chrome/Perfetto trace-event
// JSON for ui.perfetto.dev, an interval rollup time-series CSV, the
// per-request lifecycle span CSV with its exact TTFT decomposition
// (hold + queue + prefill + wire + outage), and the per-request trace
// records with placement filled in from the spans. The exports record the
// *last* arm of the run — in the fault and overload trios the full-recovery
// / full-shedding configuration, which is the one worth looking at. The
// recorder is a strict observer: a traced run makes bit-identical decisions
// to an untraced one (scripts/bench.sh checks exactly that), so attaching
// the exports never changes a report.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime/pprof"
	"strings"

	"github.com/lightllm-go/lightllm/internal/cluster"
	"github.com/lightllm-go/lightllm/internal/obs"
	"github.com/lightllm-go/lightllm/internal/trace"
)

// obsInterval is the observability rollup interval, seconds.
const obsInterval = 10

// config is what the command line sets; every other parameter is a
// constant of the scenario that uses it.
type config struct {
	replicas      int
	phase         float64
	seed          uint64
	scaleRequests int
	scaleRepeat   int

	jsonPath, csvPath, cpuProfile          string
	tracePath, tsPath, spansPath, reqsPath string

	// rec is the observability recorder an arm attaches (nil for an
	// untraced arm — the zero-cost default).
	rec *obs.Collector
}

func main() {
	err := run(os.Args[1:])
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "fleetsim:", err)
		os.Exit(1)
	}
}

// parse reads the command line and validates it against the scenario
// table, returning the configuration and the scenarios to run, in order.
func parse(args []string) (config, []*scenario, error) {
	var c config
	var std []string
	for _, s := range scenarios {
		if s.std {
			std = append(std, s.name)
		}
	}
	fs := flag.NewFlagSet("fleetsim", flag.ContinueOnError)
	names := fs.String("scenario", strings.Join(std, ","), "comma-separated scenarios to run, in order: "+scenarioNames())
	fs.IntVar(&c.replicas, "replicas", 6, "fleet size: the autoscaling bound; the fault trio runs twice this and the mixed fleet adds twice this in economy replicas")
	fs.Float64Var(&c.phase, "phase", 90, "seconds per ramp phase (calm, ramp, burst, calm), at least 1")
	fs.Uint64Var(&c.seed, "seed", 1, "random seed")
	fs.IntVar(&c.scaleRequests, "scale-requests", 1_000_000, "scale: day-trace length, requests")
	fs.IntVar(&c.scaleRepeat, "scale-repeat", 1, "scale: timing repeats (wall-clock is the min; report equality is checked on every repeat)")
	fs.StringVar(&c.jsonPath, "json", "", "write the report as JSON to this file")
	fs.StringVar(&c.csvPath, "csv", "", "write the planner evaluation trace as CSV to this file")
	fs.StringVar(&c.tracePath, "trace", "", "write a Chrome/Perfetto trace-event JSON of the observed arm to this file (open at ui.perfetto.dev)")
	fs.StringVar(&c.tsPath, "timeseries", "", "write the interval rollup time series of the observed arm as CSV to this file")
	fs.StringVar(&c.spansPath, "spans", "", "write the per-request lifecycle spans (exact TTFT decomposition) of the observed arm as CSV to this file")
	fs.StringVar(&c.reqsPath, "requests", "", "write the observed arm's per-request trace records as CSV to this file, placement filled from the spans")
	fs.StringVar(&c.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	if err := fs.Parse(args); err != nil {
		return c, nil, err
	}
	if fs.NArg() > 0 {
		return c, nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if c.replicas < 1 {
		return c, nil, fmt.Errorf("-replicas %d: want at least 1", c.replicas)
	}
	if !(c.phase >= 1) || math.IsInf(c.phase, 1) {
		return c, nil, fmt.Errorf("-phase %v: want a finite phase of at least 1 s", c.phase)
	}
	if c.scaleRequests < 1 {
		return c, nil, fmt.Errorf("-scale-requests %d: want at least 1", c.scaleRequests)
	}
	if c.scaleRepeat < 1 {
		return c, nil, fmt.Errorf("-scale-repeat %d: want at least 1", c.scaleRepeat)
	}

	var selected []*scenario
	seen := map[string]bool{}
	for _, name := range strings.Split(*names, ",") {
		name = strings.TrimSpace(name)
		s := lookup(name)
		switch {
		case s == nil:
			return c, nil, fmt.Errorf("unknown scenario %q (want %s)", name, scenarioNames())
		case seen[name]:
			return c, nil, fmt.Errorf("scenario %q listed twice", name)
		case c.replicas < s.minReplicas:
			return c, nil, fmt.Errorf("scenario %s needs -replicas of at least %d, got %d", name, s.minReplicas, c.replicas)
		}
		seen[name] = true
		selected = append(selected, s)
	}
	for _, s := range selected {
		if s.solo != nil && len(selected) > 1 {
			return c, nil, fmt.Errorf("scenario %s writes its own report and runs alone", s.name)
		}
	}
	return c, selected, nil
}

func lookup(name string) *scenario {
	for i := range scenarios {
		if scenarios[i].name == name {
			return &scenarios[i]
		}
	}
	return nil
}

func scenarioNames() string {
	names := make([]string, len(scenarios))
	for i, s := range scenarios {
		names[i] = s.name
	}
	return strings.Join(names, ", ")
}

// run executes the command line: every arm of every selected scenario in
// order, then the reports, then the claims. A failed claim is an error
// returned after the reports are written, so the record it fails on can be
// inspected.
func run(args []string) error {
	c, selected, err := parse(args)
	if err != nil {
		return err
	}
	if c.cpuProfile != "" {
		f, err := os.Create(c.cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if selected[0].solo != nil {
		return selected[0].solo(c)
	}

	// Any observability export attaches one collector to the last arm of
	// the run. Its chatter goes to stderr so a traced run's stdout stays
	// byte-identical to an untraced one — the parity the bench asserts.
	var col *obs.Collector
	last := selected[len(selected)-1]
	if c.tracePath != "" || c.tsPath != "" || c.spansPath != "" || c.reqsPath != "" {
		col = obs.NewCollector(obsInterval)
		fmt.Fprintf(os.Stderr, "observability: recording mode %s\n", last.arms[len(last.arms)-1].name)
	}
	scenarioRows := make([][]row, len(selected))
	var all []row
	for i, s := range selected {
		for j, a := range s.arms {
			c.rec = nil
			if col != nil && s == last && j == len(s.arms)-1 {
				c.rec = col
			}
			r := a.run(c)
			r.Mode, r.Policy = a.name, policy.String()
			if c.csvPath != "" && r.plan != nil {
				if err := writePlanCSV(c.csvPath, r.plan); err != nil {
					return err
				}
			}
			scenarioRows[i] = append(scenarioRows[i], r)
		}
		if s.fill != nil {
			s.fill(scenarioRows[i])
		}
		all = append(all, scenarioRows[i]...)
	}

	printRows(c, all)
	for i, s := range selected {
		if s.table != nil {
			s.table(scenarioRows[i])
		}
	}
	if c.jsonPath != "" {
		if err := writeJSON(c, all); err != nil {
			return err
		}
	}
	if col != nil {
		if err := writeObs(c, col); err != nil {
			return err
		}
	}
	var failed []error
	for i, s := range selected {
		if s.claim == nil {
			continue
		}
		if err := s.claim(scenarioRows[i]); err != nil {
			failed = append(failed, fmt.Errorf("scenario %s: claim failed: %w", s.name, err))
		}
	}
	return errors.Join(failed...)
}

// writeObs exports the collector's views of the observed arm to whichever
// paths were requested.
func writeObs(c config, col *obs.Collector) error {
	for _, w := range []struct {
		path  string
		write func(string) error
	}{
		{c.tracePath, col.WritePerfettoFile},
		{c.tsPath, col.WriteTimeSeriesCSVFile},
		{c.spansPath, col.WriteSpanCSVFile},
		{c.reqsPath, func(path string) error { return writeRequestCSV(path, col) }},
	} {
		if w.path == "" {
			continue
		}
		if err := w.write(w.path); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "wrote", w.path)
	}
	return nil
}

// writeRequestCSV exports one trace.Record per observed request, with the
// placement fields (pool/replica/flavor/migrations) the request alone does
// not carry filled in from the assembled spans.
func writeRequestCSV(path string, col *obs.Collector) error {
	spans := col.Spans()
	recs := make([]trace.Record, 0, len(spans))
	for _, s := range spans {
		rec := trace.FromRequest(s.R)
		rec.Pool, rec.Replica, rec.Flavor = s.Pool, s.Rep, s.Flavor
		rec.Migrations = s.Deliveries
		recs = append(recs, rec)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteCSV(f, recs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// row is one arm's reported outcome. P99TTFT covers *served* requests only
// (a shed request has no latency); SLAAttainment counts every shed as a
// TTFT violation, so admission control cannot launder attainment.
type row struct {
	Mode           string  `json:"mode"`
	Policy         string  `json:"policy"`
	Finished       int     `json:"finished"`
	TTFTAttainment float64 `json:"ttft_attainment"`
	SLAAttainment  float64 `json:"sla_attainment"`
	MeanTTFT       float64 `json:"mean_ttft_s"`
	P99TTFT        float64 `json:"p99_ttft_s"`
	Goodput        float64 `json:"goodput_tok_s"`
	GoodputReq     float64 `json:"goodput_req_s"` // SLA-met completions per second
	ReplicaSeconds float64 `json:"replica_seconds"`
	// CostSeconds is replica-seconds × flavor cost weight (A100-equivalent
	// seconds); CostPerGood is the cost per SLA-met completion.
	CostSeconds float64 `json:"cost_seconds"`
	CostPerGood float64 `json:"cost_per_good_completion"`
	ScaleOuts   int     `json:"scale_outs"`
	ScaleIns    int     `json:"scale_ins"`
	Duration    float64 `json:"duration_s"`

	// Admission-control fields.
	Shed         int     `json:"shed,omitempty"`
	ShedFront    int     `json:"shed_front,omitempty"`
	ShedBoundary int     `json:"shed_boundary,omitempty"`
	ShedRate     float64 `json:"shed_rate,omitempty"` // shed fraction of arrivals
	Arrivals     int     `json:"arrivals,omitempty"`

	// Disaggregated-only fields.
	PrefillReplicas       int     `json:"prefill_replicas,omitempty"`
	DecodeReplicas        int     `json:"decode_replicas,omitempty"`
	PrefillReplicaSeconds float64 `json:"prefill_replica_seconds,omitempty"`
	DecodeReplicaSeconds  float64 `json:"decode_replica_seconds,omitempty"`
	Handoffs              int     `json:"handoffs,omitempty"`
	MeanTransferDelay     float64 `json:"mean_transfer_delay_s,omitempty"`

	// Heterogeneous-only field: the fleet's flavor mix, e.g.
	// "6×A100-80G + 12×RTX-4090".
	Flavors string `json:"flavors,omitempty"`

	// Fault-injection fields (the fault trio).
	Crashes         int     `json:"crashes,omitempty"`
	Orphaned        int     `json:"orphaned,omitempty"`
	Recovered       int     `json:"recovered,omitempty"`
	ReShed          int     `json:"re_shed,omitempty"`
	Lost            int     `json:"lost,omitempty"`
	TransferRetries int     `json:"transfer_retries,omitempty"`
	RePrefills      int     `json:"re_prefills,omitempty"`
	MTTR            float64 `json:"mean_time_to_recover_s,omitempty"`

	// Multi-turn prefix-caching fields (the multiturn sweep). CacheHitRate
	// is the fraction of arriving prompt tokens served from cache (resident
	// hits + host-tier restores); PrefillTokens is what prefill actually
	// encoded; PrefillSavings is the affinity arm's prefill-token reduction
	// versus the cache-blind arm at the same share point.
	PrefixShare    float64 `json:"prefix_share,omitempty"`
	CacheHitRate   float64 `json:"cache_hit_rate,omitempty"`
	CacheHitTokens int64   `json:"cache_hit_tokens,omitempty"`
	RestoredTokens int64   `json:"cache_restored_tokens,omitempty"`
	PrefillTokens  int64   `json:"prefill_compute_tokens,omitempty"`
	InputTokens    int64   `json:"input_tokens,omitempty"`
	PrefillSavings float64 `json:"prefill_savings_vs_blind,omitempty"`

	// Long-context chunked-prefill fields (the longctx sweep). The short-*
	// axes cover the chat class's served requests; LongAttainment is the
	// long-document class's deadline attainment over all its arrivals, so
	// an arm cannot win the short axis by starving the long prompts.
	LongShare       float64 `json:"long_share,omitempty"`
	ChunkPolicy     string  `json:"chunk_policy,omitempty"`
	ShortP99TTFT    float64 `json:"short_p99_ttft_s,omitempty"`
	ShortAttainment float64 `json:"short_ttft_attainment,omitempty"`
	LongAttainment  float64 `json:"long_attainment,omitempty"`
	ShortServed     int     `json:"short_served,omitempty"`
	LongServed      int     `json:"long_served,omitempty"`
	ChunkIters      int     `json:"chunk_iters,omitempty"`
	PrefillChunks   int64   `json:"prefill_chunks,omitempty"`

	// plan is the planner trace -csv writes; nil for an arm whose trace
	// is not recorded.
	plan []cluster.PlanSample
}

func printRows(c config, rows []row) {
	fmt.Printf("fleet: %d×Llama2-7B (cap %d tok), policy %s, SLA %s\n",
		c.replicas, capacity, policy, sla)
	fmt.Printf("workload: %.0f→%.0f→%.0f→%.0f req/s × %.0fs phases (seed %d; overload ramps to %.0f)\n",
		baseRate, (baseRate+burstRate)/2, burstRate, baseRate, c.phase, c.seed,
		burstRate*overloadX)
	fmt.Printf("%-20s %9s %9s %9s %9s %9s %12s %10s %6s\n",
		"mode", "ttft-att", "sla-att", "p99TTFT", "good-r/s", "shed", "replica-sec", "cost-sec", "out/in")
	for _, r := range rows {
		fmt.Printf("%-20s %8.1f%% %8.1f%% %8.2fs %9.2f %9d %12.0f %10.0f %3d/%-3d\n",
			r.Mode, r.TTFTAttainment*100, r.SLAAttainment*100,
			r.P99TTFT, r.GoodputReq, r.Shed, r.ReplicaSeconds, r.CostSeconds, r.ScaleOuts, r.ScaleIns)
	}
	for _, r := range rows {
		if r.Flavors != "" {
			fmt.Printf("%s: %s, %.0f cost-sec (%.2f per SLA-met completion)\n",
				r.Mode, r.Flavors, r.CostSeconds, r.CostPerGood)
		}
	}
	for _, r := range rows {
		if r.Crashes > 0 {
			fmt.Printf("%s: %d crashes (MTTR %.1fs), %d orphaned, %d recovered + %d re-shed + %d lost, %d transfer retries, %d re-prefills\n",
				r.Mode, r.Crashes, r.MTTR, r.Orphaned, r.Recovered, r.ReShed, r.Lost, r.TransferRetries, r.RePrefills)
		}
	}
	for _, r := range rows {
		if r.Handoffs > 0 {
			fmt.Printf("%s: %d prefill + %d decode replicas (%.0f + %.0f replica-sec), %d handoffs, mean transfer %.1f ms",
				r.Mode, r.PrefillReplicas, r.DecodeReplicas,
				r.PrefillReplicaSeconds, r.DecodeReplicaSeconds,
				r.Handoffs, r.MeanTransferDelay*1e3)
			if r.Shed > 0 {
				fmt.Printf(", shed %d/%d (%d front, %d at transfer boundary)",
					r.Shed, r.Arrivals, r.ShedFront, r.ShedBoundary)
			}
			fmt.Println()
		}
	}
}

func writeJSON(c config, rows []row) error {
	out := struct {
		Replicas int     `json:"replicas"`
		Capacity int     `json:"capacity_tokens"`
		TTFT     float64 `json:"sla_ttft_s"`
		TPOT     float64 `json:"sla_tpot_s"`
		Rate     float64 `json:"base_rate"`
		Burst    float64 `json:"burst_rate"`
		Overload float64 `json:"overload_factor"`
		Slack    float64 `json:"admission_slack_s"`
		Seed     uint64  `json:"seed"`
		Modes    []row   `json:"modes"`
	}{c.replicas, capacity, sla.TTFT, sla.MTPOT,
		baseRate, burstRate, overloadX, slack, c.seed, rows}
	return writeJSONFile(c.jsonPath, out)
}

// writeJSONFile writes v as indented JSON and reports the path on stdout.
func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}

func writePlanCSV(path string, samples []cluster.PlanSample) error {
	var b strings.Builder
	// targets is the per-flavor breakdown of target, "|"-joined in flavor
	// order — one value for a homogeneous pool, the cost-aware placement
	// decision itself for a mixed fleet.
	fmt.Fprintln(&b, "at_s,rate,isl,osl,pred_rate,target,active,corr_ttft,corr_tpot,shed,crashes,targets")
	for _, s := range samples {
		parts := make([]string, len(s.Targets))
		for i, t := range s.Targets {
			parts[i] = fmt.Sprintf("%d", t)
		}
		fmt.Fprintf(&b, "%.1f,%.3f,%.1f,%.1f,%.3f,%d,%d,%.3f,%.3f,%d,%d,%s\n",
			s.At, s.Rate, s.ISL, s.OSL, s.PredRate, s.Target, s.Active, s.CorrTTFT, s.CorrTPOT,
			s.Shed, s.Crashes, strings.Join(parts, "|"))
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}
