package main

// CPU-profile attribution. The traced replay runs under runtime/pprof; the
// profile is then read back through the toolchain's own `go tool pprof
// -traces` (no profile-parsing dependency) and every sample is charged to
// the innermost layer-boundary frame on its stack. Frames that match no
// boundary (sort, request accessors, the perf model, rng) fall through to
// the nearest boundary above them, so each sample lands in exactly one
// layer and the shares sum to 1 together with the unattributed share.

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strings"
	"time"
)

const modPrefix = "github.com/lightllm-go/lightllm/internal/"

// layerTable maps boundary frames to layers. A frame matches an entry when
// its function name starts with the entry's prefix; the first matching
// entry wins, so the specific cluster sub-layers precede the cluster.loop
// catch-all and the estimator precedes the rest of core.
var layerTable = []struct{ prefix, layer string }{
	// cluster: the routing probe.
	{modPrefix + "cluster.(*Pool).pick", "cluster.route"},
	{modPrefix + "cluster.(*Pool).route", "cluster.route"}, // route, routeTo
	{modPrefix + "cluster.(*Pool).probe", "cluster.route"},
	{modPrefix + "cluster.(*Pool).bestProbe", "cluster.route"},
	{modPrefix + "cluster.(*Pool).bestCachedTokens", "cluster.route"},
	{modPrefix + "cluster.(*Pool).affinity", "cluster.route"},
	{modPrefix + "cluster.(*Pool).load", "cluster.route"},
	{modPrefix + "cluster.(*Pool).ensureEst", "cluster.route"},
	{modPrefix + "cluster.(*Pool).fallbackReplica", "cluster.route"},
	{modPrefix + "cluster.(*Pool).rebuildAccepting", "cluster.route"},
	{modPrefix + "cluster.betterFit", "cluster.route"},
	// cluster: front admission.
	{modPrefix + "cluster.(*admission)", "cluster.admission"},
	{modPrefix + "cluster.(*admitHeap)", "cluster.admission"},
	{modPrefix + "cluster.admitHeap", "cluster.admission"},
	{modPrefix + "cluster.deadlineKey", "cluster.admission"},
	// cluster: planner and scaling actions.
	{modPrefix + "cluster.(*planner)", "cluster.planner"},
	{modPrefix + "cluster.(*holt)", "cluster.planner"},
	{modPrefix + "cluster.(*ewma)", "cluster.planner"},
	{modPrefix + "cluster.(*constant)", "cluster.planner"},
	{modPrefix + "cluster.replicaThroughput", "cluster.planner"},
	{modPrefix + "cluster.maxDecodeBatch", "cluster.planner"},
	{modPrefix + "cluster.updateCorrection", "cluster.planner"},
	{modPrefix + "cluster.(*Pool).applyTarget", "cluster.planner"},
	{modPrefix + "cluster.(*Pool).activate", "cluster.planner"},
	{modPrefix + "cluster.(*Pool).retire", "cluster.planner"},
	{modPrefix + "cluster.(*Pool).cheapestCold", "cluster.planner"},
	{modPrefix + "cluster.(*Pool).costliestDrained", "cluster.planner"},
	{modPrefix + "cluster.(*Pool).scaleInVictim", "cluster.planner"},
	{modPrefix + "cluster.(*Pool).activeByFlavor", "cluster.planner"},
	// cluster: fault injection and recovery.
	{modPrefix + "cluster.(*faultState)", "cluster.faults"},
	{modPrefix + "cluster.(*Cluster).crashReplica", "cluster.faults"},
	{modPrefix + "cluster.(*Cluster).recoverReplica", "cluster.faults"},
	{modPrefix + "cluster.(*Cluster).reenter", "cluster.faults"},
	{modPrefix + "cluster.(*Cluster).slow", "cluster.faults"},
	{modPrefix + "cluster.(*Cluster).failDelivery", "cluster.faults"},
	{modPrefix + "cluster.(*Cluster).retryHandoff", "cluster.faults"},
	// cluster: everything else is the event loop.
	{modPrefix + "cluster.", "cluster.loop"},
	{modPrefix + "core.(*PeakEstimator)", "core.estimator"},
	{modPrefix + "core.", "core.admit"},
	{modPrefix + "dist.", "dist.sampler"},
	{modPrefix + "kv.", "kv"},
	{modPrefix + "engine.", "engine"},
	{modPrefix + "obs.", "obs"},
	{modPrefix + "workload.", "workload"},
	{modPrefix + "metrics.", "metrics"},
	{"main.", "harness"},
	{"runtime.gcBgMarkWorker", "runtime.gc"},
	{"runtime.gcAssistAlloc", "runtime.gc"},
	{"runtime.gcDrain", "runtime.gc"},
	{"runtime.bgsweep", "runtime.gc"},
	{"runtime.bgscavenge", "runtime.gc"},
	{"runtime.gcStart", "runtime.gc"},
	{"runtime.GC", "runtime.gc"},
	{"runtime.mallocgc", "runtime.alloc"},
}

// profileLayers lists every layer the table can produce, in report order.
func profileLayers() []string {
	var out []string
	seen := map[string]bool{}
	for _, e := range layerTable {
		if !seen[e.layer] {
			seen[e.layer] = true
			out = append(out, e.layer)
		}
	}
	return out
}

func layerOf(frame string) string {
	for _, e := range layerTable {
		if strings.HasPrefix(frame, e.prefix) {
			return e.layer
		}
	}
	return ""
}

// profile is the parsed attribution: sampled (self) time per layer and in
// total, plus inclusive time per layer and for stepFrame: the time of
// samples with that layer or frame anywhere on the stack.
type profile struct {
	byLayer      map[string]time.Duration
	unattributed time.Duration
	total        time.Duration
	inclusive    map[string]time.Duration
}

func (p *profile) share(layer string) float64 {
	return float64(p.byLayer[layer]) / float64(p.total)
}

// stepFrame is the engine step, whose inclusive time prices one step on
// the fleets (where the event loop, not the benchmark, calls it).
const stepFrame = modPrefix + "engine.(*Engine).Step"

// startProfile begins CPU profiling into path; stop ends it.
func startProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// attribute runs `go tool pprof -traces` over the profiles (pprof merges
// them) and parses the result.
func attribute(profPaths []string) (*profile, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := append([]string{"tool", "pprof", "-traces", exe}, profPaths...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parseTraces(out)
}

// parseTraces reads pprof's -traces text: blocks separated by dashed
// lines, each opening with "<value>   <leaf frame>" and continuing with one
// caller frame per line, leaf first. Label lines ("key: value") are
// skipped.
func parseTraces(text []byte) (*profile, error) {
	p := &profile{byLayer: map[string]time.Duration{}, inclusive: map[string]time.Duration{}}
	var val time.Duration
	var frames []string
	flush := func() {
		if len(frames) == 0 {
			return
		}
		p.total += val
		self := ""
		on := map[string]bool{}
		for _, f := range frames {
			if l := layerOf(f); l != "" {
				if self == "" {
					self = l // the innermost boundary frame
				}
				on[l] = true
			}
			if f == stepFrame {
				on[f] = true
			}
		}
		if self == "" {
			p.unattributed += val
		} else {
			p.byLayer[self] += val
		}
		for k := range on {
			p.inclusive[k] += val
		}
		frames = frames[:0]
	}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inBlocks := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlocks = true
			continue
		}
		if !inBlocks {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 || strings.HasSuffix(fields[0], ":") {
			continue
		}
		if d, err := time.ParseDuration(fields[0]); err == nil && len(frames) == 0 && len(fields) >= 2 {
			val = d
			frames = append(frames, fields[1])
			continue
		}
		frames = append(frames, fields[0])
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if p.total == 0 {
		return nil, fmt.Errorf("profile holds no samples")
	}
	return p, nil
}
