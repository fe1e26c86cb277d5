package obs

import (
	"testing"

	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/hw"
	"github.com/lightllm-go/lightllm/internal/model"
	"github.com/lightllm-go/lightllm/internal/perf"
	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/rng"
	"github.com/lightllm-go/lightllm/internal/workload"
)

func testPerf() *perf.Model {
	return perf.MustNew(perf.Config{Model: model.Llama2_7B, Cluster: hw.NewCluster(hw.A100_80G, 1)})
}

// TestAttachSingleEngine: a Collector attached straight to one engine
// counts exactly what the engine's own hooks report. The token hook fires
// per token, but only a request's first token counts; iteration rows carry
// the engine's KV tokens priced at its bytes per token; and every finished
// span closes with an exact TTFT decomposition.
func TestAttachSingleEngine(t *testing.T) {
	e := engine.MustNew(engine.Config{
		Perf:             testPerf(),
		Scheduler:        core.MustNewAggressive(0.99),
		CapacityOverride: 3_000,
	})
	var iters, tokens int
	var kvPeak int
	e.AddTokenHook(func(float64, *request.Request) { tokens++ })
	e.AddIterationHook(func(_ float64, it engine.Iteration) {
		iters++
		if it.KVTokens > kvPeak {
			kvPeak = it.KVTokens
		}
	})
	col := NewCollector(0.5)
	col.Attach(e, 0, 0)

	r := rng.New(3)
	reqs := make([]*request.Request, 40)
	at := 0.0
	for i := range reqs {
		at += r.Exp(0.05)
		reqs[i] = request.New(int64(i+1), r.IntRange(50, 400), r.IntRange(20, 120), 128, at)
		col.Arrive(at, reqs[i])
	}
	e.SubmitAll(reqs)
	res := e.Run()
	if len(res.Finished) != len(reqs) || res.Evictions == 0 {
		t.Fatalf("%d of %d finished with %d evictions; want all finished under eviction pressure",
			len(res.Finished), len(reqs), res.Evictions)
	}
	if tokens <= len(reqs) {
		t.Fatalf("token hook fired %d times for %d requests", tokens, len(reqs))
	}

	var got TSRow
	for _, row := range col.Rows() {
		if row.Scope != 0 {
			continue
		}
		got.Iters += row.Iters
		got.FirstTokens += row.FirstTokens
		got.Finishes += row.Finishes
		got.Evictions += row.Evictions
		if row.KVBytesPeak > got.KVBytesPeak {
			got.KVBytesPeak = row.KVBytesPeak
		}
	}
	if got.FirstTokens != len(reqs) || got.Finishes != len(reqs) {
		t.Fatalf("recorded %d first tokens and %d finishes for %d requests", got.FirstTokens, got.Finishes, len(reqs))
	}
	if got.Evictions != res.Evictions || got.Iters != iters {
		t.Fatalf("recorded %d evictions, %d iterations; engine reported %d, %d", got.Evictions, got.Iters, res.Evictions, iters)
	}
	if want := int64(kvPeak) * e.KVBytesPerToken(); got.KVBytesPeak != want {
		t.Fatalf("KV bytes peak %d, want %d", got.KVBytesPeak, want)
	}
	for _, s := range col.Spans() {
		if s.TTFTAt < 0 {
			t.Fatalf("request %d finished with an open span", s.R.ID)
		}
	}
	if err := col.CheckDecomposition(1e-6); err != nil {
		t.Fatal(err)
	}
}

// TestAttachCacheFlows: on a prefix-caching engine under memory pressure,
// the Collector's cache token flows match the engine's own accounting:
// hits and restores as served at admission, and cache evictions as the
// pool's reclaimed blocks.
func TestAttachCacheFlows(t *testing.T) {
	const blockTokens = 64
	e := engine.MustNew(engine.Config{
		Perf:             testPerf(),
		Scheduler:        core.MustNewAggressive(0.95),
		CapacityOverride: 12_000,
		PrefixCache: engine.PrefixCacheConfig{
			Enabled: true, BlockTokens: blockTokens, OffloadCapacityTokens: 20_000,
		},
	})
	col := NewCollector(1)
	col.Attach(e, 0, 0)
	gen, err := workload.NewSessions(workload.SessionsConfig{
		Base:               workload.ShareGPT,
		BlockTokens:        blockTokens,
		SystemPromptTokens: 256,
		SharedSystemRatio:  0.7,
		TurnProb:           0.6,
		MaxTurns:           6,
		Cooldown:           2,
		MaxInputTokens:     3000,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(9)
	reqs := workload.Build(gen, r, 150, 1, 512)
	workload.AssignPoissonArrivals(reqs, r, 40, 0)
	e.SubmitAll(reqs)
	res := e.Run()

	var hit, restore, miss, evict int64
	for _, row := range col.Rows() {
		hit += row.CacheHitTokens
		restore += row.CacheRestoreTokens
		miss += row.CacheMissTokens
		evict += row.CacheEvictTokens
	}
	if hit == 0 || miss == 0 || res.PrefixCache.EvictedBlocks == 0 {
		t.Fatalf("no cache pressure: %d hit, %d miss tokens, %d evicted blocks", hit, miss, res.PrefixCache.EvictedBlocks)
	}
	if hit != res.CacheHitTokens || restore != res.CacheRestoredTokens {
		t.Fatalf("recorded %d hit, %d restored tokens; engine counted %d, %d", hit, restore, res.CacheHitTokens, res.CacheRestoredTokens)
	}
	if want := res.PrefixCache.EvictedBlocks * blockTokens; evict != want {
		t.Fatalf("recorded %d cache-evict tokens, pool reclaimed %d", evict, want)
	}
}
