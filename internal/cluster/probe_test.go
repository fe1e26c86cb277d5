package cluster

import (
	"fmt"
	"math"
	"testing"

	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/faults"
	"github.com/lightllm-go/lightllm/internal/hw"
	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/rng"
)

// exhaustiveProbe is the unpruned reference of bestProbe: every accepting
// replica probed in index order, the first strictly better (fits, score)
// under betterFit wins, and replicas over the gate are skipped.
func exhaustiveProbe(p *Pool, req *request.Request, gate float64) *replica {
	var best *replica
	bestFits, bestScore := false, math.Inf(1)
	for _, rep := range p.accepting {
		f := p.probe(rep, req)
		if f > gate {
			continue
		}
		fits := f <= 1
		score := f/rep.flv.relSpeed - p.affinity(rep, req)
		if best == nil || betterFit(fits, score, bestFits, bestScore) {
			best, bestFits, bestScore = rep, fits, score
		}
	}
	return best
}

// probeReplicas builds n FutureHeadroom-ready engines: with hetero every odd
// replica runs on an A30 (relSpeed < 1), with cached the prefix cache is on.
func probeReplicas(n, capacity int, hetero, cached bool, seed uint64) []*engine.Engine {
	fast, slow := testPerf(), perfFor(hw.A30)
	out := make([]*engine.Engine, n)
	for i := range out {
		cfg := engine.Config{
			Perf: fast,
			Scheduler: core.MustNewPastFuture(core.PastFutureConfig{
				Reserved: 0.05, Rng: rng.New(seed + uint64(i)),
			}),
			CapacityOverride: capacity,
		}
		if hetero && i%2 == 1 {
			cfg.Perf = slow
		}
		if cached {
			cfg.PrefixCache = engine.PrefixCacheConfig{Enabled: true, BlockTokens: 64}
		}
		out[i] = engine.MustNew(cfg)
	}
	return out
}

func replicaIdx(rep *replica) int {
	if rep == nil {
		return -1
	}
	return rep.idx
}

// TestPrunedProbeMatchesExhaustive pins the branch and bound: at every
// routing decision of a served workload, the pruned bestProbe must return
// the same replica as the exhaustive index-order argmin — ungated (the
// routing pick itself, made with the estimators as the run left them) and
// under finite gates (after invalidating every replica, so pruned replicas
// really skip stale estimators). Gates include fixed levels, a random one
// and one exactly equal to some replica's probe fraction. Pools cover
// identical replicas (score ties, broken by index), a heterogeneous pool
// (relSpeed ≠ 1, predicted overflow) and prefix-cache affinity.
func TestPrunedProbeMatchesExhaustive(t *testing.T) {
	cases := []struct {
		name           string
		hetero, cached bool
		affinity       float64
		capacity       int
		reqs           func(seed uint64) []*request.Request
	}{
		{"identical", false, false, 0, 20_000, func(s uint64) []*request.Request { return poissonReqs(300, 6, s) }},
		{"hetero", true, false, 0, 6_000, func(s uint64) []*request.Request { return poissonReqs(300, 40, s) }},
		{"affinity", false, true, 0.5, 12_000, func(s uint64) []*request.Request { return sessionReqs(300, 30, s) }},
		{"hetero-affinity", true, true, 0.5, 8_000, func(s uint64) []*request.Request { return sessionReqs(300, 40, s) }},
	}
	for _, tc := range cases {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				var f *Fleet
				gates := rng.New(seed + 100)
				decisions, passed, failed := 0, 0, 0
				check := func(req *request.Request, gate float64, got *replica) {
					want := exhaustiveProbe(f.Pool, req, gate)
					if got != want {
						t.Fatalf("decision %d, req %d, gate %v: pruned chose %d, exhaustive %d",
							decisions, req.ID, gate, replicaIdx(got), replicaIdx(want))
					}
					if got == nil {
						failed++
					} else {
						passed++
					}
				}
				f = MustNew(Config{
					Replicas:       probeReplicas(6, tc.capacity, tc.hetero, tc.cached, seed),
					Policy:         FutureHeadroom,
					AffinityWeight: tc.affinity,
					OnRoute: func(req *request.Request, idx int) {
						decisions++
						check(req, math.Inf(1), f.reps[idx])
						exact := f.probe(f.accepting[gates.Intn(len(f.accepting))], req)
						for _, gate := range []float64{0.25, 0.5, 0.8, 1, 1.5, exact, 1.2 * gates.Float64()} {
							for _, rep := range f.reps {
								rep.invalidate()
							}
							check(req, gate, f.bestProbe(req, gate))
						}
					},
				})
				f.Serve(tc.reqs(seed), 1e9)
				if decisions == 0 || passed == 0 || failed == 0 {
					t.Fatalf("vacuous: %d decisions, %d gated passes, %d gated fails", decisions, passed, failed)
				}
				if f.stats.pruned == 0 {
					t.Fatal("no replica was ever pruned: the bound is not exercised")
				}
			})
		}
	}
}

// TestProbeStatsAccountForEveryReplica: every FutureHeadroom routing
// decision accounts for each accepting replica exactly once, as a probe or
// as a pruned replica, and estimators are rebuilt only for probed replicas.
func TestProbeStatsAccountForEveryReplica(t *testing.T) {
	const n = 6
	f := MustNew(Config{Replicas: replicas(n, 12_000), Policy: FutureHeadroom})
	f.Serve(poissonReqs(400, 40, 3), 1e9)
	routed := 0
	for _, c := range f.RoutedCounts() {
		routed += c
	}
	st := f.stats
	if routed != 400 {
		t.Fatalf("routed %d of 400", routed)
	}
	if st.probes+st.pruned != n*routed {
		t.Fatalf("probes %d + pruned %d != %d accepting × %d routed", st.probes, st.pruned, n, routed)
	}
	if st.pruned == 0 || st.probes < routed {
		t.Fatalf("probes %d, pruned %d over %d decisions: want every decision to probe and some to prune",
			st.probes, st.pruned, routed)
	}
	if st.rebuilds > st.probes {
		t.Fatalf("%d estimator rebuilds for %d probes", st.rebuilds, st.probes)
	}
}

// TestProbeBoundMatchesEngineAcrossCrashes: while a replica's estimator is
// unbuilt, its cached ΣCurrent must equal the sum over the engine's current
// requests — otherwise the bound may prune a replica that would win. A
// crash empties the engine without invalidating the probe state, so it must
// settle the estimator first; this checks every replica at every routing
// decision of a crash storm with recovery.
func TestProbeBoundMatchesEngineAcrossCrashes(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		var c *Cluster
		checks := 0
		c = MustNewCluster(ClusterConfig{
			Pools: []Config{{
				Replicas: replicas(4, 10_000),
				Policy:   FutureHeadroom,
				OnRoute: func(*request.Request, int) {
					for _, rep := range c.pools[0].reps {
						if !rep.curValid || rep.estValid {
							continue
						}
						sum := 0
						add := func(r *request.Request) { sum += core.EntryCurrent(r) }
						rep.eng.ForEachRunning(add)
						rep.eng.ForEachQueued(add)
						if sum != rep.curSum {
							t.Fatalf("seed %d: replica %d caches ΣCurrent %d, engine holds %d", seed, rep.idx, rep.curSum, sum)
						}
						checks++
					}
				},
			}},
			Faults: &FaultConfig{
				Recover:  true,
				Schedule: faults.Generate(rng.New(seed), 0, 4, 3, 0.5, 10),
			},
		})
		c.Serve(poissonReqs(500, 60, seed), 1e9)
		if c.flt.crashes == 0 || checks == 0 {
			t.Fatalf("seed %d: %d crashes, %d checks: the scenario exercised nothing", seed, c.flt.crashes, checks)
		}
	}
}
