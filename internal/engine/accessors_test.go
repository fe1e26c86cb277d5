package engine

import (
	"testing"

	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/request"
)

func TestObserverAccessorsMidRun(t *testing.T) {
	e := newEngine(t, core.MustNewConservative(1.0), 300)
	// Two requests: one fits, one must queue behind it.
	a := request.New(1, 100, 20, 150, 0)
	b := request.New(2, 100, 20, 150, 0)
	e.Submit(a)
	e.Submit(b)
	e.Step() // admission + prefill of a
	if e.Clock() <= 0 {
		t.Fatal("clock did not advance")
	}
	if e.RunningLen() != 1 || e.QueueLen() != 1 {
		t.Fatalf("running=%d queue=%d", e.RunningLen(), e.QueueLen())
	}
	running := e.RunningRequests()
	queued := e.QueuedRequests()
	if len(running) != 1 || running[0] != a {
		t.Fatalf("running snapshot: %v", running)
	}
	if len(queued) != 1 || queued[0] != b {
		t.Fatalf("queued snapshot: %v", queued)
	}
	// Snapshots are copies: mutating them must not affect the engine.
	running[0] = nil
	queued[0] = nil
	if e.RunningRequests()[0] != a || e.QueuedRequests()[0] != b {
		t.Fatal("snapshots aliased engine state")
	}
	e.Run()
}

func TestAllHookAddersChain(t *testing.T) {
	e := newEngine(t, core.MustNewAggressive(0.99), 500)
	var tokens, finishes, evicts, iters int
	e.AddTokenHook(func(float64, *request.Request) { tokens++ })
	e.AddTokenHook(func(float64, *request.Request) { tokens++ }) // chained: counts twice
	e.AddFinishHook(func(float64, *request.Request) { finishes++ })
	e.AddEvictHook(func(float64, *request.Request) { evicts++ })
	e.AddIterationHook(func(float64, Iteration) { iters++ })
	e.SubmitAll(mkReqs(10, 20, 40, 100))
	res := e.Run()
	if tokens != int(res.OutputTokens)*2 {
		t.Fatalf("token hook fired %d times for %d tokens", tokens, res.OutputTokens)
	}
	if finishes != len(res.Finished) {
		t.Fatalf("finish hook %d vs %d", finishes, len(res.Finished))
	}
	if evicts != res.Evictions {
		t.Fatalf("evict hook %d vs %d", evicts, res.Evictions)
	}
	if iters == 0 {
		t.Fatal("iteration hook never fired")
	}
}

// TestHooksRunInInstallOrder: chained hooks run in the order they were
// added, so an observer attached last (obs.Collector.Attach) sees each
// lifecycle point after every earlier hook.
func TestHooksRunInInstallOrder(t *testing.T) {
	e := newEngine(t, core.MustNewAggressive(0.99), 500)
	var seq []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		e.AddTokenHook(func(float64, *request.Request) { seq = append(seq, "tok-"+name) })
		e.AddFinishHook(func(float64, *request.Request) { seq = append(seq, "fin-"+name) })
	}
	e.SubmitAll(mkReqs(4, 20, 5, 100))
	res := e.Run()
	if want := 3 * (int(res.OutputTokens) + len(res.Finished)); len(seq) != want {
		t.Fatalf("%d hook calls, want %d", len(seq), want)
	}
	for i := 0; i < len(seq); i += 3 {
		kind := seq[i][:4]
		if seq[i] != kind+"a" || seq[i+1] != kind+"b" || seq[i+2] != kind+"c" {
			t.Fatalf("hooks out of install order at %d: %v", i, seq[i:i+3])
		}
	}
}

func TestStaticBatchWaitsForArrivals(t *testing.T) {
	e, err := New(Config{
		Perf:             testPerf(t),
		Strategy:         StaticBatch,
		StaticBatchSize:  2,
		CapacityOverride: 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	// First batch at t=0; the next request arrives much later: the engine
	// must idle-jump to it and form a second batch.
	e.Submit(request.New(1, 50, 5, 20, 0))
	e.Submit(request.New(2, 50, 5, 20, 100))
	res := e.Run()
	if len(res.Finished) != 2 {
		t.Fatalf("finished %d", len(res.Finished))
	}
	late := res.Finished[1]
	if late.FirstTokenAt < 100 {
		t.Fatalf("late static request served at %v", late.FirstTokenAt)
	}
}

func TestStaticBatchUnservableHead(t *testing.T) {
	e, err := New(Config{
		Perf:             testPerf(t),
		Strategy:         StaticBatch,
		StaticBatchSize:  2,
		CapacityOverride: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Submit(request.New(1, 500, 5, 20, 0)) // prompt exceeds capacity
	e.Submit(request.New(2, 40, 5, 20, 0))
	res := e.Run()
	if len(res.Failed) != 1 || res.Failed[0].ID != 1 {
		t.Fatalf("failed: %v", res.Failed)
	}
	if len(res.Finished) != 1 || res.Finished[0].ID != 2 {
		t.Fatalf("finished: %v", res.Finished)
	}
}

func TestResultEdgeRates(t *testing.T) {
	r := &Result{}
	if r.EvictionRate() != 0 || r.Throughput() != 0 {
		t.Fatal("zero-value result rates should be 0")
	}
	r.Finished = mkReqs(2, 10, 5, 10)
	r.Evictions = 3
	if r.EvictionRate() != 1.5 {
		t.Fatalf("eviction rate %v", r.EvictionRate())
	}
}

func TestIterationKindsReported(t *testing.T) {
	e := newEngine(t, core.NewOracle(), 2000)
	kinds := map[string]int{}
	e.AddIterationHook(func(_ float64, it Iteration) { kinds[it.Kind]++ })
	e.SubmitAll(mkReqs(5, 50, 10, 20))
	e.Run()
	if kinds["prefill"] == 0 || kinds["decode"] == 0 {
		t.Fatalf("iteration kinds: %v", kinds)
	}
}

func TestHardwareAccessors(t *testing.T) {
	e := newEngine(t, core.MustNewConservative(1.0), 300)
	if got, want := e.KVBytesPerToken(), e.Perf().Spec().KVBytesPerToken(); got != want || got <= 0 {
		t.Fatalf("KVBytesPerToken %d, want %d (> 0)", got, want)
	}
	if got, want := e.CostWeight(), e.Perf().CostWeight(); got != want || got <= 0 {
		t.Fatalf("CostWeight %v, want %v (> 0)", got, want)
	}
}
