package main

// The traced run: untraced replays first (the reference report and the
// overhead baseline), then traced replays under the CPU profiler. It
// reports the per-layer metrics only; the end-to-end numbers always come
// from untraced runs.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func runTraced(w *workloadDef, seed uint64, seconds float64) (result, error) {
	budget := time.Duration(seconds * float64(time.Second))
	var ref string
	plain, err := replays(w, seed, budget/2, 2, func() *tracer { return nil }, &ref, false)
	if err != nil {
		return result{}, err
	}
	dir, err := buildDir()
	if err != nil {
		return result{}, err
	}
	// Each traced replay is profiled on its own, so set-up and the gate's
	// checks between replays stay out of the attribution.
	var tracers []*tracer
	var profiles []string
	defer func() {
		for _, p := range profiles {
			os.Remove(p)
		}
	}()
	traced, err := replays(w, seed, budget/2, 2, func() *tracer {
		tr := newTracer()
		tr.profile = filepath.Join(dir, fmt.Sprintf("simbench-%d-%d.pprof", os.Getpid(), len(tracers)))
		tracers = append(tracers, tr)
		profiles = append(profiles, tr.profile)
		return tr
	}, &ref, true)
	if err != nil {
		// A traced report that differs from the untraced one lands here:
		// the instruments must be strict observers.
		return result{}, err
	}
	prof, err := attribute(profiles)
	if err != nil {
		return result{}, err
	}

	var plainCPU, tracedCPU []float64
	for _, r := range plain {
		plainCPU = append(plainCPU, r.cpu.Seconds())
	}
	for _, r := range traced {
		tracedCPU = append(tracedCPU, r.cpu.Seconds())
	}
	tr, first := tracers[0], traced[0]
	m := layerMetrics(first, plain[0], tr, prof, sum(tracedCPU)/float64(len(traced)))
	m["trace.overhead"] = metric{median(tracedCPU)/median(plainCPU) - 1, "share"}

	printLayerTable(w, m)
	fmt.Println("spans of the first traced replay:")
	tr.writeSpans(os.Stdout)
	return finish(first.out.submitted, m), nil
}

// layerMetrics derives the per-layer metrics of one traced replay. plain is
// an untraced replay of the same seed (allocation and GC counts); prof
// covers every traced replay, each of which took perReplay CPU seconds.
func layerMetrics(r, plain rep, tr *tracer, prof *profile, perReplay float64) map[string]metric {
	o := r.out
	kreq := float64(o.submitted) / 1000
	m := map[string]metric{}
	count := func(name string, v float64) { m[name] = metric{v, "count"} }
	share := func(name string, v float64) { m[name] = metric{v, "share"} }

	for _, layer := range profileLayers() {
		share(layer+".cpu_share", prof.share(layer))
		if !strings.HasPrefix(layer, "runtime.") && layer != "harness" {
			share(layer+".incl_share", ratio(float64(prof.inclusive[layer]), float64(prof.total)))
		}
	}
	share("profile.unattributed_share", float64(prof.unattributed)/float64(prof.total))

	// Engine and scheduler.
	count("engine.steps", float64(tr.steps))
	stepUS := 0.0
	if st := tr.stat("engine.step"); st.count > 0 {
		stepUS = float64(st.total.Microseconds()) / float64(st.count)
	} else if tr.steps > 0 {
		// The fleets step their engines inside the event loop: take the
		// profiled inclusive share of Engine.Step, scaled to one replay.
		incl := prof.inclusive[stepFrame].Seconds() / prof.total.Seconds() * perReplay
		stepUS = incl * 1e6 / float64(tr.steps)
	}
	m["engine.step_us"] = metric{stepUS, "us"}
	count("core.admit.calls", float64(tr.admitCalls))
	adm := tr.stat("core.admit")
	m["core.admit.us"] = metric{ratio(float64(adm.total.Nanoseconds())/1e3, float64(adm.count)), "us"}
	share("core.admit.yield", ratio(float64(tr.yielded), float64(tr.admitCalls)))
	m["engine.evictions_per_kreq"] = metric{float64(tr.evictions) / kreq, "1/kreq"}
	m["engine.queue_wait_p99_s"] = metric{zeroIfEmpty(tr.firstAdmitWait, 0.99), "s"}
	count("engine.queue_wait_samples", float64(len(tr.firstAdmitWait)))
	m["engine.batch_mean"] = metric{ratio(float64(tr.batchSum), float64(tr.steps)), "count"}

	var futSum, futW, memUtil float64
	var hit, restored, input int64
	for i, res := range o.results {
		w := float64(tr.admitBatches[i])
		futSum += res.FutureRequiredMean * w
		futW += w
		memUtil += res.MemUtilization
		hit += res.CacheHitTokens
		restored += res.CacheRestoredTokens
		input += res.InputTokens
	}
	m["core.future_required_mean"] = metric{ratio(futSum, futW), "share"}
	share("kv.hit_share", ratio(float64(hit), float64(input)))
	share("kv.restored_share", ratio(float64(restored), float64(input)))
	share("kv.mem_util", memUtil/float64(len(o.results)))

	// Cluster: admission, faults, planner, loop, routing.
	var shedFront, shedBoundary, scaleOuts int
	var replicaS, imbalance, holdP99 float64
	var holdN int
	if f := o.fleet; f != nil {
		shedFront, shedBoundary, scaleOuts = f.ShedFront, f.ShedBoundary, f.ScaleOuts
		replicaS = f.ReplicaSeconds
	}
	if o.col != nil {
		var holds []float64
		for _, s := range o.col.Spans() {
			if s.HeldOnce {
				holds = append(holds, s.Hold)
			}
		}
		holdP99, holdN = zeroIfEmpty(holds, 0.99), len(holds)
	}
	imbalance = tr.routeImbalance()
	count("cluster.admission.shed_front", float64(shedFront))
	count("cluster.admission.shed_boundary", float64(shedBoundary))
	m["cluster.admission.hold_p99_s"] = metric{holdP99, "s"}
	count("cluster.admission.hold_samples", float64(holdN))
	count("cluster.faults.orphaned", float64(o.summary.Orphaned))
	count("cluster.faults.recovered", float64(o.summary.Recovered))
	count("cluster.faults.lost", float64(o.summary.Lost))
	m["cluster.faults.mttr_s"] = metric{o.summary.MeanTimeToRecover, "s"}
	count("cluster.planner.scale_outs", float64(scaleOuts))
	m["cluster.planner.replica_s"] = metric{replicaS, "s"}
	count("cluster.route.calls", float64(tr.routeCalls))
	m["cluster.route.imbalance"] = metric{imbalance, "cv"}
	m["cluster.events_per_req"] = metric{float64(o.events) / float64(o.submitted), "1/req"}
	m["cluster.host_us_per_event"] = metric{ratio(plain.cpu.Seconds()*1e6, float64(o.events)), "us"}

	// Observability.
	spans := 0
	if o.col != nil {
		spans = len(o.col.Spans())
	}
	count("obs.spans", float64(spans))

	// Workload and runtime.
	gen := tr.stat("workload.next").total + tr.stat("workload.build").total + tr.stat("workload.sample").total
	m["workload.gen_s"] = metric{gen.Seconds(), "s"}
	count("workload.requests", float64(o.submitted))
	count("metrics.percentile_samples", float64(len(o.finished)))
	props := workloadProps(o)
	share("workload.reusable_prefix_share", props.reusableShare())
	m["workload.mean_input_tokens"] = metric{props.meanInput(), "tok"}
	m["workload.mean_output_tokens"] = metric{props.meanOutput(), "tok"}
	m["runtime.alloc_mb_per_kreq"] = metric{plain.allocMB / kreq, "MB/kreq"}
	count("runtime.gc_cycles", float64(plain.gcCycles))
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func zeroIfEmpty(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	return quantile(vs, q)
}

func sum(vs []float64) float64 {
	t := 0.0
	for _, v := range vs {
		t += v
	}
	return t
}

func printLayerTable(w *workloadDef, m map[string]metric) {
	fmt.Printf("%s per-layer metrics (traced run):\n", w.name)
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-36s %16.6f %s\n", n, m[n].Value, m[n].Unit)
	}
}
