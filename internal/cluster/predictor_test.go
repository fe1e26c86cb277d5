package cluster

import (
	"math"
	"testing"

	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/metrics"
)

func TestConstantPredictor(t *testing.T) {
	p := ConstantPredictor.New()
	p.Observe(3)
	p.Observe(7)
	if got := p.Predict(); got != 7 {
		t.Fatalf("constant predicts %v, want last observation 7", got)
	}
}

func TestEWMAPredictorSmooths(t *testing.T) {
	p := EWMAPredictor.New()
	p.Observe(10)
	p.Observe(0)
	got := p.Predict()
	if got <= 0 || got >= 10 {
		t.Fatalf("ewma %v not between the observations", got)
	}
	// Converges to a constant signal.
	for i := 0; i < 50; i++ {
		p.Observe(4)
	}
	if math.Abs(p.Predict()-4) > 1e-6 {
		t.Fatalf("ewma did not converge to 4: %v", p.Predict())
	}
}

func TestHoltPredictorExtrapolatesTrend(t *testing.T) {
	p := HoltPredictor.New()
	for _, v := range []float64{1, 2, 3, 4, 5} {
		p.Observe(v)
	}
	// On an exactly linear series Holt's recurrences are exact: the
	// forecast is the next point.
	if got := p.Predict(); math.Abs(got-6) > 1e-9 {
		t.Fatalf("holt predicts %v for 1..5, want 6", got)
	}
	// An EWMA on the same ramp lags behind.
	e := EWMAPredictor.New()
	for _, v := range []float64{1, 2, 3, 4, 5} {
		e.Observe(v)
	}
	if e.Predict() >= p.Predict() {
		t.Fatalf("ewma %v should lag holt %v on a ramp", e.Predict(), p.Predict())
	}
}

func TestReplicaThroughputInterpolation(t *testing.T) {
	pm := testPerf()
	capTokens := pm.CapacityTokens()

	loose, _, _ := replicaThroughput(pm, capTokens, 500, 300, 10, 1.5)
	tight, _, tightTPOT := replicaThroughput(pm, capTokens, 500, 300, 10, 0.05)
	if loose <= 0 || tight <= 0 {
		t.Fatalf("throughput not positive: loose %v tight %v", loose, tight)
	}
	if tight > loose {
		t.Fatalf("tighter TPOT target yields higher throughput: %v > %v", tight, loose)
	}
	if tightTPOT > 0.05 {
		t.Fatalf("operating point %v violates the TPOT target", tightTPOT)
	}

	// A TTFT target below the prefill time of a single prompt is infeasible.
	if r, predTTFT, _ := replicaThroughput(pm, capTokens, 4000, 300, 1e-6, 1.5); r != 0 || predTTFT <= 0 {
		t.Fatalf("infeasible TTFT returned rate %v (pred %v)", r, predTTFT)
	}
}

func TestCorrectionFactorClamps(t *testing.T) {
	c := updateCorrection(1, 1000, 1) // observed 1000× worse than predicted
	if c > correctionCeil {
		t.Fatalf("correction %v above ceiling", c)
	}
	for i := 0; i < 20; i++ {
		c = updateCorrection(c, 1, 1000)
	}
	if c < correctionFloor {
		t.Fatalf("correction %v below floor", c)
	}
	if got := updateCorrection(2, 0, 1); got != 2 {
		t.Fatalf("zero observation mutated correction: %v", got)
	}
}

func TestPlannerTargetScalesWithRate(t *testing.T) {
	pm := testPerf()
	f := &flavor{name: "test", pm: pm, capacity: pm.CapacityTokens(), cost: 1, relSpeed: 1, reps: make([]*replica, 8)}
	for _, homogeneous := range []bool{false, true} {
		p := newPlanner(PlannerConfig{
			SLA: metrics.SLASmall, Min: 1, Max: 8, Interval: 10, Predictor: ConstantPredictor,
		}.withDefaults(), []*flavor{f}, engine.RoleMixed, homogeneous)
		total := func(rate float64) int {
			n := 0
			for _, tgt := range p.sizeTargets(rate, 500, 300) {
				n += tgt
			}
			return n
		}
		low := total(0.5)
		high := total(50)
		if low < 1 || high > 8 {
			t.Fatalf("homogeneous=%v: targets outside bounds: %d, %d", homogeneous, low, high)
		}
		if high <= low {
			t.Fatalf("homogeneous=%v: 100× the load did not raise the target: %d -> %d", homogeneous, low, high)
		}
	}
}
