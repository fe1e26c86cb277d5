package cluster

import (
	"testing"

	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/rng"
	"github.com/lightllm-go/lightllm/internal/workload"
)

func TestRoundRobinBalances(t *testing.T) {
	f := MustNew(Config{Replicas: replicas(4, 50_000), Policy: RoundRobin})
	results := f.Serve(poissonReqs(200, 20, 1), 1e9)
	counts := f.RoutedCounts()
	for i, c := range counts {
		if c != 50 {
			t.Fatalf("replica %d got %d requests: %v", i, c, counts)
		}
	}
	total := 0
	for _, res := range results {
		total += len(res.Finished)
	}
	if total != 200 {
		t.Fatalf("finished %d of 200", total)
	}
	if f.Imbalance() != 0 {
		t.Fatalf("round robin imbalance %v", f.Imbalance())
	}
}

func TestFutureHeadroomAvoidsLoadedReplica(t *testing.T) {
	// Replica 0 is pre-loaded with long-running requests; the headroom
	// policy must steer arrivals to replica 1.
	reps := replicas(2, 20_000)
	for i := 0; i < 8; i++ {
		reps[0].Submit(request.New(int64(1000+i), 1000, 1000, 1200, 0))
	}
	f := MustNew(Config{Replicas: reps, Policy: FutureHeadroom})
	reqs := poissonReqs(40, 50, 3)
	f.Serve(reqs, 1e9)
	counts := f.RoutedCounts()
	if counts[1] <= counts[0] {
		t.Fatalf("headroom routing did not avoid the loaded replica: %v", counts)
	}
}

func TestLeastLoadedAvoidsQueuedReplica(t *testing.T) {
	reps := replicas(2, 20_000)
	for i := 0; i < 30; i++ {
		reps[0].Submit(request.New(int64(1000+i), 2000, 500, 600, 0))
	}
	f := MustNew(Config{Replicas: reps, Policy: LeastLoaded})
	f.Serve(poissonReqs(40, 50, 4), 1e9)
	counts := f.RoutedCounts()
	if counts[1] <= counts[0] {
		t.Fatalf("least-loaded routing did not avoid the queued replica: %v", counts)
	}
}

func TestAutoscaleOutUnderLoad(t *testing.T) {
	// Small replicas + heavy traffic: the fleet must scale from 1 to more
	// active replicas.
	reps := replicas(4, 8_000)
	f := MustNew(Config{
		Replicas: reps,
		Policy:   FutureHeadroom,
		Scale:    &AutoScale{Min: 1, Max: 4, HighWater: 0.6, LowWater: 0.1, ActivationDelay: 1.0},
	})
	if f.ActiveReplicas() != 1 {
		t.Fatalf("initial active = %d", f.ActiveReplicas())
	}
	reqs := poissonReqs(300, 40, 5)
	f.Serve(reqs, 1e9)
	out, _ := f.ScaleEvents()
	if out == 0 {
		t.Fatal("no scale-out under heavy load")
	}
	if f.ActiveReplicas() < 2 {
		t.Fatalf("active replicas %d after heavy load", f.ActiveReplicas())
	}
}

func TestAutoscaleInWhenIdle(t *testing.T) {
	reps := replicas(3, 8_000)
	f := MustNew(Config{
		Replicas: reps,
		Policy:   LeastLoaded,
		Scale:    &AutoScale{Min: 1, Max: 3, HighWater: 0.7, LowWater: 0.2, ActivationDelay: 0.5},
	})
	// Phase 1: heavy burst forces scale-out. Phase 2: a long trickle lets
	// load fall below the low-water mark, triggering scale-in.
	burst := poissonReqs(200, 50, 6)
	trickle := workload.Build(workload.ShareGPT, rng.New(7), 60, 10_000, 256)
	rr := rng.New(8)
	workload.AssignPoissonArrivals(trickle, rr, 0.5, 120) // slow arrivals after the burst
	all := append(burst, trickle...)
	f.Serve(all, 1e9)
	up, down := f.ScaleEvents()
	if up == 0 {
		t.Fatal("no scale-out during burst")
	}
	if down == 0 {
		t.Fatal("no scale-in during trickle")
	}
}

func TestHeadroomBeatsRoundRobinOnSkewedLoad(t *testing.T) {
	// Heterogeneous request sizes create load skew that round-robin cannot
	// see. At moderate utilisation (near the knee, where queueing is
	// transient rather than saturated), estimator-driven routing yields
	// lower queueing delay: mean TTFT must beat round-robin.
	meanTTFT := func(policy Policy) float64 {
		reps := replicas(3, 30_000)
		f := MustNew(Config{Replicas: reps, Policy: policy})
		gen := workload.Uniform{Label: "skewed", InLo: 100, InHi: 4000, OutLo: 50, OutHi: 2000}
		rr := rng.New(9)
		reqs := workload.Build(gen, rr, 300, 1, 2048)
		workload.AssignPoissonArrivals(reqs, rr, 1.3, 0)
		results := f.Serve(reqs, 1e9)
		var sum float64
		var n int
		for _, res := range results {
			for _, req := range res.Finished {
				sum += req.TTFT()
				n++
			}
		}
		if n == 0 {
			t.Fatal("nothing finished")
		}
		return sum / float64(n)
	}
	hr := meanTTFT(FutureHeadroom)
	rrob := meanTTFT(RoundRobin)
	if hr >= rrob {
		t.Fatalf("future-headroom mean TTFT %.2fs not below round-robin %.2fs", hr, rrob)
	}
}

// TestFleetAdmissionSheds pins admission on a monolithic fleet: a one-pool
// cluster with an AdmissionConfig runs the cluster-front pipeline — an
// overloaded stream sheds terminally, every arrival ends exactly once in
// {completed, shed}, and nothing stays held after Serve.
func TestFleetAdmissionSheds(t *testing.T) {
	f := MustNewCluster(ClusterConfig{
		Pools:     []Config{{Replicas: replicas(2, 8_000), Policy: FutureHeadroom}},
		Admission: &AdmissionConfig{TTFTBudget: 4, Shed: true, Slack: 0.5, MaxProbe: 0.9},
	})
	const n = 300
	rr := rng.New(5)
	reqs := workload.Build(workload.ShareGPT, rr, n, 1, 512)
	workload.AssignPoissonArrivals(reqs, rr, 60, 0)
	results := f.Serve(reqs, 1e9)
	finished := 0
	for _, res := range results {
		finished += len(res.Finished)
	}
	shed := len(f.ShedRequests())
	if shed == 0 {
		t.Fatal("overloaded fleet shed nothing; admission not threaded")
	}
	if finished+shed != n {
		t.Fatalf("%d finished + %d shed != %d arrivals", finished, shed, n)
	}
	if f.HeldRequests() != 0 {
		t.Fatalf("%d requests left held after Serve", f.HeldRequests())
	}
	for _, s := range f.ShedRequests() {
		if s.Outcome != request.OutcomeShed {
			t.Fatalf("shed request %d outcome %v", s.ID, s.Outcome)
		}
	}
}
