// Command simbench is the simulator's benchmark: it replays one of three
// seeded workloads through the public simulator API, checks the outcome,
// and prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics of a traced replay) as one JSON object on its last output line.
//
//	go run . --workload day-replay --seed 1 --seconds 30 --trace 0
//
// See README.md for the workloads, the metrics and what each measures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// heldOutSeed is the seed later performance claims must also hold on; it
// is never used while tuning a change (BENCHMARK.json records it too).
const heldOutSeed = 9001

const (
	minReps   = 3  // replays per run, whatever --seconds allows
	setupRuns = 51 // stand-alone set-ups per run, median reported
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: day-replay, session-storm or paper-closedloop")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 10, "measurement budget, host seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
	)
	flag.Parse()
	w := findWorkload(*name)
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "simbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	printProvenance(w, *seed, *trace)
	var res result
	var err error
	if *trace == 1 {
		res, err = runTraced(w, *seed, *seconds)
	} else {
		res, err = runMeasured(w, *seed, *seconds)
	}
	if err != nil {
		fmt.Printf("correctness gate: FAIL: %v\n", err)
		res.Correct = false
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "simbench:", jerr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// printProvenance records the host shape and the code under test.
func printProvenance(w *workloadDef, seed uint64, trace int) {
	commit := os.Getenv("SIMBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
		if bi, ok := debug.ReadBuildInfo(); ok {
			for _, s := range bi.Settings {
				if s.Key == "vcs.revision" {
					commit = s.Value
				}
			}
		}
	}
	prov := map[string]any{
		"workload": w.name, "loop": w.loop, "seed": seed, "held_out_seed": heldOutSeed,
		"trace": trace, "num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"commit": commit,
	}
	b, _ := json.Marshal(map[string]any{"provenance": prov}) // strings and numbers only: cannot fail
	fmt.Println(string(b))
}

// rep is one measured replay.
type rep struct {
	cpu      time.Duration // process CPU time of the replay
	heapMB   float64
	allocMB  float64
	gcCycles uint32
	terminal int
	sim      simMetrics
	report   string
	out      *outcome // the first traced replay of a traced run only
}

// measureRep sets the workload up, replays it once and measures the
// replay. The outcome is kept only when keep is set.
func measureRep(w *workloadDef, seed uint64, tr *tracer, keep bool) (rep, error) {
	var r rep
	runtime.GC()
	var replay func() *outcome
	tr.span("setup", func() { replay = w.setup(seed, tr) })

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var stop func() error
	if tr != nil && tr.profile != "" {
		var err error
		if stop, err = startProfile(tr.profile); err != nil {
			return r, err
		}
	}
	cpu0 := cpuTime()
	out := replay()
	r.cpu = cpuTime() - cpu0
	if stop != nil {
		if err := stop(); err != nil {
			return r, err
		}
	}
	runtime.ReadMemStats(&after)
	r.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	r.gcCycles = after.NumGC - before.NumGC
	replay = nil // the results stay reachable, the fleet that made them does not
	runtime.GC()
	runtime.ReadMemStats(&after)
	r.heapMB = float64(after.HeapAlloc) / (1 << 20)

	if err := checkOutcome(out); err != nil {
		return r, fmt.Errorf("%s seed %d: %v", w.name, seed, err)
	}
	r.terminal = out.terminal()
	r.sim = computeSim(out)
	r.report = canonicalReport(out, r.sim)
	if keep {
		r.out = out
	}
	runtime.KeepAlive(out)
	return r, nil
}

// replays runs measured replays until the budget is spent (at least
// minimum of them) and checks every report against ref, which the first
// replay sets when empty. keepFirst keeps the first replay's outcome.
func replays(w *workloadDef, seed uint64, budget time.Duration, minimum int, newTracer func() *tracer, ref *string, keepFirst bool) ([]rep, error) {
	var reps []rep
	start := time.Now()
	for {
		r, err := measureRep(w, seed, newTracer(), keepFirst && len(reps) == 0)
		if err != nil {
			return nil, err
		}
		if *ref == "" {
			*ref = r.report
		} else if r.report != *ref {
			return nil, fmt.Errorf("%s seed %d: replay %d's simulated report differs from the first replay's", w.name, seed, len(reps)+1)
		}
		reps = append(reps, r)
		elapsed := time.Since(start)
		perRep := elapsed / time.Duration(len(reps))
		if len(reps) >= minimum && elapsed+perRep > budget {
			return reps, nil
		}
	}
}

// setupMedian times setupRuns stand-alone set-ups and returns the median
// in seconds. Each starts from a freshly collected heap with the collector
// paused, so no collection or assist lands inside a timing.
func setupMedian(w *workloadDef, seed uint64) float64 {
	vals := make([]float64, setupRuns)
	for i := range vals {
		runtime.GC()
		gcPercent := debug.SetGCPercent(-1)
		t0 := time.Now()
		replay := w.setup(seed, nil)
		vals[i] = time.Since(t0).Seconds()
		debug.SetGCPercent(gcPercent)
		runtime.KeepAlive(replay)
	}
	return median(vals)
}

func runMeasured(w *workloadDef, seed uint64, seconds float64) (result, error) {
	var ref string
	budget := time.Duration(seconds * float64(time.Second))
	reps, err := replays(w, seed, budget, minReps, func() *tracer { return nil }, &ref, false)
	if err != nil {
		return result{}, err
	}
	first := reps[0]
	var rps, heap []float64
	for _, r := range reps {
		rps = append(rps, float64(r.terminal)/r.cpu.Seconds())
		heap = append(heap, r.heapMB)
	}
	s := first.sim
	m := map[string]metric{
		"setup_s":         {setupMedian(w, seed), "s"},
		"sim_req_per_s":   {median(rps), "1/s"},
		"live_heap_mb":    {median(heap), "MB"},
		"goodput_tok_s":   {s.goodput, "tok/s"},
		"sla_attainment":  {s.attainment, "share"},
		"served_share":    {s.served, "share"},
		"ttft_p50_s":      {s.ttftP50, "s"},
		"ttft_p999_s":     {s.ttftP999, "s"},
		"mtpot_p999_s":    {s.mtpotP999, "s"},
		"cost_per_good_s": {s.costPerGood, "s"},
	}
	printTable(w, m, s, len(reps))
	return finish(s.submitted, m), nil
}

// finish assembles the result line; a non-finite metric fails the gate.
// attempted counts the requests one replay submits.
func finish(attempted int, m map[string]metric) result {
	res := result{Correct: true, Attempted: attempted, Metrics: m}
	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			fmt.Printf("correctness gate: FAIL: metric %s is %v\n", name, v.Value)
			res.Correct = false
		}
	}
	return res
}

func printTable(w *workloadDef, m map[string]metric, s simMetrics, reps int) {
	fmt.Printf("%s (%s loop): %d submitted, %d finished, %d replays\n", w.name, w.loop, s.submitted, s.samples, reps)
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		note := ""
		if strings.HasPrefix(n, "ttft_p") || strings.HasPrefix(n, "mtpot_p") {
			note = fmt.Sprintf("  (n=%d finished requests)", s.samples)
		}
		fmt.Printf("  %-36s %16.6f %-6s%s\n", n, m[n].Value, m[n].Unit, note)
	}
}

// cpuTime is the process's user plus system CPU time so far. Replays are
// timed in CPU time: the replay is single-threaded, so on an idle host it
// matches wall time (plus the collector's work on other cores), but it
// does not grow while a neighbour's load keeps the process off the CPU.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid buffer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// buildDir is where the traced run keeps its profile: the benchmark's own
// build directory under the working directory.
func buildDir() (string, error) {
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
