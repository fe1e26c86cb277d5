package main

import (
	"fmt"

	"github.com/lightllm-go/lightllm/internal/cluster"
	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/hw"
	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/rng"
	"github.com/lightllm-go/lightllm/internal/workload"
)

// The multiturn scenario: multi-turn chat traffic (shared system prompts,
// growing per-turn histories) served by a caching fleet, swept across the
// prefix-share axis — the probability a session continues past each turn.
// Each share point runs cache-blind (AffinityWeight 0) and then under
// cache-affinity routing on the identical workload and fleet, so the pair
// isolates what routing alone is worth: the same blocks are cached either
// way, but blind routing scatters a session's turns across replicas that
// never saw its history.
const (
	mtRate     = 10.0   // session-turn arrival rate, req/s
	mtDuration = 240.0  // workload span, s
	mtCapacity = 40_000 // per-replica KV capacity: resident prefixes sit on top of in-flight work
	affinity   = 0.5    // the affinity arm's routing weight
)

// multiturnArms expands the share sweep into a blind and an affinity arm
// per point. The blind arm runs first, so the affinity row's savings are
// measured against a baseline that already exists.
func multiturnArms(shares ...float64) []arm {
	var arms []arm
	for _, s := range shares {
		s := s
		arms = append(arms,
			arm{fmt.Sprintf("multiturn-%.2f-blind", s), func(c config) row { return multiturn(c, s, 0) }},
			arm{fmt.Sprintf("multiturn-%.2f-affinity", s), func(c config) row { return multiturn(c, s, affinity) }})
	}
	return arms
}

// sessionTraffic synthesizes the multi-turn arrival list for one share
// point: ShareGPT turn lengths, a 256-token system prompt shared by 70% of
// sessions, histories capped at 3000 tokens, Poisson arrivals.
func sessionTraffic(c config, share float64) []*request.Request {
	gen, err := workload.NewSessions(workload.SessionsConfig{
		Base:               workload.ShareGPT,
		BlockTokens:        64,
		SystemPromptTokens: 256,
		SharedSystemRatio:  0.7,
		TurnProb:           share,
		MaxTurns:           8,
		Cooldown:           2,
		MaxInputTokens:     3000,
	})
	if err != nil {
		panic(err) // the configuration is constant; an error is a bug
	}
	r := rng.New(c.seed + 2000)
	reqs := workload.Build(gen, r, int(mtRate*mtDuration), 1, 512)
	workload.AssignPoissonArrivals(reqs, r, mtRate, 0)
	return reqs
}

// multiturn serves one (share, weight) point on the caching fleet both arms
// share: Past-Future replicas with the prefix cache on and an unbounded
// host offload tier (evictions spill, later turns restore at wire cost).
// The fleet is fixed-size — the acceptance axis is equal provisioned
// capacity, so an autoscaler must not paper over blind routing's extra
// prefill by scaling out. weight is the only difference between the arms.
func multiturn(c config, share, weight float64) row {
	f := cluster.MustNewCluster(cluster.ClusterConfig{
		Pools: []cluster.Config{{
			Replicas: pastFuture(c.replicas, c.seed, engine.Config{
				Perf:             perfModel(hw.A100_80G),
				CapacityOverride: mtCapacity,
				PrefixCache: engine.PrefixCacheConfig{
					Enabled: true, BlockTokens: 64, OffloadCapacityTokens: -1,
				},
			}),
			Policy:         policy,
			AffinityWeight: weight,
		}},
		Recorder: c.rec,
	})
	r, _, results := serve(f, sessionTraffic(c, share))
	r.PrefixShare = share
	for _, res := range results {
		r.CacheHitTokens += res.CacheHitTokens
		r.RestoredTokens += res.CacheRestoredTokens
		r.PrefillTokens += res.PrefillComputeTokens
		r.InputTokens += res.InputTokens
	}
	if r.InputTokens > 0 {
		r.CacheHitRate = float64(r.CacheHitTokens+r.RestoredTokens) / float64(r.InputTokens)
	}
	return r
}

// fillPrefillSavings annotates each affinity row with its prefill-token
// savings relative to the blind arm at the same share point.
func fillPrefillSavings(rows []row) {
	for i := 0; i+1 < len(rows); i += 2 {
		if blind := rows[i].PrefillTokens; blind > 0 {
			rows[i+1].PrefillSavings = 1 - float64(rows[i+1].PrefillTokens)/float64(blind)
		}
	}
}

// multiturnClaim: at every share above zero, affinity routing beats blind
// routing on served p99 TTFT and on prefill tokens computed.
func multiturnClaim(rows []row) error {
	for i := 0; i+1 < len(rows); i += 2 {
		blind, aff := rows[i], rows[i+1]
		if blind.PrefixShare == 0 {
			continue
		}
		if aff.P99TTFT >= blind.P99TTFT {
			return fmt.Errorf("%s served p99 TTFT %.3fs, not below %s's %.3fs", aff.Mode, aff.P99TTFT, blind.Mode, blind.P99TTFT)
		}
		if aff.PrefillTokens >= blind.PrefillTokens {
			return fmt.Errorf("%s computed %d prefill tokens, not fewer than %s's %d", aff.Mode, aff.PrefillTokens, blind.Mode, blind.PrefillTokens)
		}
	}
	return nil
}

// printMultiturn renders the share sweep as hit-rate / TTFT / provisioning
// curves under the standard table.
func printMultiturn(rows []row) {
	fmt.Printf("%-24s %8s %9s %9s %12s %14s %12s\n",
		"multiturn", "hit-rate", "p99TTFT", "sla-att", "replica-sec", "prefill-tok", "vs-blind")
	for _, r := range rows {
		savings := ""
		if r.PrefillSavings != 0 {
			savings = fmt.Sprintf("%+.1f%%", -r.PrefillSavings*100)
		}
		fmt.Printf("%-24s %7.1f%% %8.2fs %8.1f%% %12.0f %14d %12s\n",
			r.Mode, r.CacheHitRate*100, r.P99TTFT, r.SLAAttainment*100,
			r.ReplicaSeconds, r.PrefillTokens, savings)
	}
}
