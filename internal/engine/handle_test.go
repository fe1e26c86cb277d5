package engine

import (
	"strings"
	"testing"

	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/request"
)

// requireNoHandle fails the test if r still holds a KV handle.
func requireNoHandle(t *testing.T, where string, r *request.Request) {
	t.Helper()
	if r.KVHandle != 0 {
		t.Fatalf("%s: request %d holds KV handle %d", where, r.ID, r.KVHandle)
	}
}

// requirePanic runs f and fails the test unless it panics with a message
// containing want.
func requirePanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one containing %q", want)
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want one containing %q", r, want)
		}
	}()
	f()
}

// TestHandlesNeverLeaveThePool: a crash hands back every request with its
// KV handle zeroed, whichever pipeline held it (running batch, chunk
// pipeline, static batch), so ResetForRetry accepts it and a second engine
// serves it from its own pool.
func TestHandlesNeverLeaveThePool(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  func(t *testing.T) Config
		reqs func() []*request.Request
	}{
		{"prefill-priority", func(t *testing.T) Config {
			return Config{Perf: testPerf(t), Scheduler: core.MustNewAggressive(0.95), CapacityOverride: 4000}
		}, func() []*request.Request { return mkReqs(12, 400, 50, 100) }},
		{"chunked", func(t *testing.T) Config {
			return Config{Perf: testPerf(t), Scheduler: core.MustNewAggressive(0.95), CapacityOverride: 8000,
				MaxPrefillTokens: 256, Chunked: ChunkConfig{Enabled: true, ChunkTokens: 256}}
		}, func() []*request.Request { return mkReqs(12, 1500, 50, 100) }},
		{"static", func(t *testing.T) Config {
			return Config{Perf: testPerf(t), Strategy: StaticBatch, StaticBatchSize: 4, CapacityOverride: 4000}
		}, func() []*request.Request { return mkReqs(12, 400, 50, 100) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := MustNew(tc.cfg(t))
			reqs := tc.reqs()
			e.SubmitAll(reqs)
			for i := 0; i < 3 && e.Step(); i++ {
			}
			held := 0
			for _, r := range reqs {
				if r.KVHandle != 0 {
					held++
				}
			}
			if held == 0 || (tc.name == "chunked" && len(e.prefilling) == 0) {
				t.Fatalf("%d requests hold handles, %d mid-chunk: the crash tests nothing",
					held, len(e.prefilling))
			}
			orphans := e.Crash()
			if len(orphans) != len(reqs) {
				t.Fatalf("crash returned %d orphans, want %d", len(orphans), len(reqs))
			}
			e2 := MustNew(tc.cfg(t))
			for _, r := range orphans {
				requireNoHandle(t, "after Crash", r)
				r.ResetForRetry()
				requireNoHandle(t, "after ResetForRetry", r)
				e2.SubmitAt(r, e.Clock())
			}
			res := e2.Run()
			if len(res.Finished) != len(reqs) {
				t.Fatalf("second engine finished %d of %d", len(res.Finished), len(reqs))
			}
			for _, r := range res.Finished {
				requireNoHandle(t, "after the rerun", r)
			}
			if used := e2.Pool().UsedTokens(); used != 0 {
				t.Fatalf("second engine leaked %d KV tokens", used)
			}
		})
	}
}

// TestHandoffReleasesHandle: a prefill-only engine frees the KV allocation
// before the handoff hook fires, fused or chunked, so the request reaches
// the decode pool holding no handle from the prefill pool.
func TestHandoffReleasesHandle(t *testing.T) {
	for _, chunk := range []ChunkConfig{{}, {Enabled: true, ChunkTokens: 128}} {
		e := MustNew(Config{
			Perf:             testPerf(t),
			Scheduler:        core.MustNewAggressive(0.95),
			Role:             RolePrefillOnly,
			CapacityOverride: 50_000,
			Chunked:          chunk,
		})
		handoffs := 0
		e.AddHandoffHook(func(_ float64, r *request.Request) {
			handoffs++
			requireNoHandle(t, "at handoff", r)
		})
		e.AddFinishHook(func(_ float64, r *request.Request) { requireNoHandle(t, "at finish", r) })
		reqs := mkReqs(20, 300, 40, 64)
		reqs[0] = request.New(1, 300, 1, 64, 0) // single-token: finishes in place
		e.SubmitAll(reqs)
		e.Run()
		if handoffs != len(reqs)-1 {
			t.Fatalf("chunked=%v: %d handoffs, want %d", chunk.Enabled, handoffs, len(reqs)-1)
		}
	}
}

// TestEvictAndFinishReleaseHandle: eviction and completion both zero the
// handle before their hooks fire.
func TestEvictAndFinishReleaseHandle(t *testing.T) {
	e := newEngine(t, core.MustNewAggressive(0.99), 2000)
	evictions := 0
	e.AddEvictHook(func(_ float64, r *request.Request) {
		evictions++
		requireNoHandle(t, "at eviction", r)
	})
	e.AddFinishHook(func(_ float64, r *request.Request) { requireNoHandle(t, "at finish", r) })
	e.SubmitAll(mkReqs(20, 50, 150, 200))
	res := e.Run()
	if evictions == 0 {
		t.Fatal("no evictions: the eviction path is untested")
	}
	if len(res.Finished) != 20 {
		t.Fatalf("finished %d of 20", len(res.Finished))
	}
}

// TestResetForRetryRejectsHeldHandle: a request the engine still holds
// cannot be rewound for another engine; its handle would name a record in
// the wrong pool.
func TestResetForRetryRejectsHeldHandle(t *testing.T) {
	e := newEngine(t, core.NewOracle(), 4000)
	e.SubmitAll(mkReqs(4, 100, 50, 100))
	for i := 0; i < 3 && e.Step(); i++ {
	}
	running := e.RunningRequests()
	if len(running) == 0 {
		t.Fatal("nothing running")
	}
	r := running[0]
	if r.KVHandle == 0 {
		t.Fatalf("running request %d holds no handle", r.ID)
	}
	requirePanic(t, "holding KV handle", r.ResetForRetry)
}

// TestAdmitWhileHoldingHandlePanics: the pool cannot see a second
// allocation for one request, so the engine refuses to admit a request
// that still holds a handle.
func TestAdmitWhileHoldingHandlePanics(t *testing.T) {
	e := newEngine(t, core.NewOracle(), 4000)
	r := request.New(1, 100, 10, 50, 0)
	r.KVHandle = 1
	e.Submit(r)
	requirePanic(t, "holds KV handle", func() { e.Step() })
}
