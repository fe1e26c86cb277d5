package cluster

import (
	"fmt"
	"math"

	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/dist"
	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/perf"
	"github.com/lightllm-go/lightllm/internal/request"
)

// Policy selects how arriving requests choose a replica.
type Policy int

const (
	// RoundRobin cycles through accepting replicas, starting at the first.
	RoundRobin Policy = iota
	// LeastLoaded picks the replica with the fewest in-flight requests.
	LeastLoaded
	// FutureHeadroom picks the replica whose predicted future peak memory
	// (running + queued + the candidate, conditional-quantile predictions
	// from the replica's own history window) leaves the most headroom.
	FutureHeadroom
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case LeastLoaded:
		return "least-loaded"
	case FutureHeadroom:
		return "future-headroom"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// AutoScale is the threshold-reactive scaling policy: scale out when the
// mean predicted load of the accepting replicas exceeds HighWater, scale in
// (one drained replica at a time) when it falls below LowWater. It is the
// baseline the predictive planner is measured against.
type AutoScale struct {
	// Min and Max bound the active replica count.
	Min, Max int
	// HighWater: scale out when mean predicted load across accepting
	// replicas exceeds this fraction (e.g. 0.85).
	HighWater float64
	// LowWater: scale in when mean predicted load falls below this
	// fraction (e.g. 0.30) and a replica is drained.
	LowWater float64
	// ActivationDelay is the simulated seconds between a scale-out decision
	// and the replica accepting traffic (model load time).
	ActivationDelay float64
	// EvalInterval, when positive, additionally evaluates the thresholds on
	// a periodic tick (so the policy can scale in while traffic drains, not
	// only at arrivals). 0 evaluates at arrivals only — the original
	// router behavior.
	EvalInterval float64
}

// Config configures one Pool: a set of same-role replicas behind a routing
// policy with optional autoscaling. It doubles as the Fleet configuration —
// a monolithic fleet *is* the one-pool RoleMixed cluster.
type Config struct {
	// Role is the serving phase this pool executes. Every replica engine
	// must be built with the same engine.Role. RoleMixed (zero value) is
	// monolithic serving.
	Role engine.Role
	// Replicas are the serving engines. Required, ≥ 1. Mixed hardware is
	// supported: the pool groups replicas into flavors (shared perf model +
	// capacity) and speed-normalizes probes, plans, and costs across them.
	Replicas []*engine.Engine
	// Policy selects the routing policy.
	Policy Policy
	// Quantile for FutureHeadroom predictions. 0 selects 0.9.
	Quantile float64
	// Scale enables threshold-reactive autoscaling. Mutually exclusive with
	// Planner; nil (with nil Planner) serves on all replicas.
	Scale *AutoScale
	// Planner enables the predictive SLA planner. In a disaggregated
	// cluster each pool carries its own planner, sized against the latency
	// phase it owns: TTFT interpolation for a prefill pool, TPOT for a
	// decode pool.
	Planner *PlannerConfig
	// AffinityWeight blends prefix-cache affinity into FutureHeadroom
	// routing: a replica's speed-normalized probe score is reduced by
	// AffinityWeight × the fraction of the request's prompt its resident
	// prefix cache can serve, so at comparable headroom the request lands
	// where its cached prefix already lives. The blend only orders
	// candidates — admission gates and fit thresholds stay on the raw
	// memory fraction, so affinity never makes an overflowing replica
	// admissible. 0 (the default) disables the blend, and with prefix
	// caching off every replica matches zero tokens, so routing is
	// bit-identical to the cache-blind policy either way.
	AffinityWeight float64
	// OnRoute, when non-nil, observes every routing decision into this pool
	// (pool-local replica index).
	OnRoute func(r *request.Request, replica int)

	// Test-only reference twins; no exported option reaches them.
	//
	// naiveProbe computes every FutureHeadroom probe and reactive load with
	// the reference core.PredictedBatchPeak (one estimator clone+sort per
	// probe) instead of the warm per-replica estimators. The decisions are
	// identical either way; it is the benchmark baseline and the
	// cross-check oracle.
	naiveProbe bool
	// homogeneousPlan sizes the SLA planner with the pre-flavor scalar rule
	// — every replica assumed identical to replica 0 — instead of the
	// flavor-aware vector sizing. The two are decision-identical on
	// single-flavor pools; it is the oracle of the refactor-seam
	// equivalence tests. Rejected on pools with more than one flavor.
	homogeneousPlan bool
}

// flavor groups a pool's replicas that share one hardware deployment: the
// same perf model (GPU platform, TP degree, kernel efficiencies) and the
// same KV capacity. A homogeneous pool has exactly one flavor; a
// heterogeneous pool carries one per GPU type, and every structure that
// used to borrow replica 0's model — planner sizing, admission floors, KV
// transfer sizing, probe normalization — reads the owning replica's flavor
// instead. Replicas are grouped by perf-model identity (pointer) plus
// engine capacity: engines sharing one *perf.Model are one flavor.
type flavor struct {
	name     string
	pm       *perf.Model
	capacity int     // KV token capacity per replica (engine pool, override included)
	cost     float64 // normalized provisioning cost per replica-second (1.0 = A100-80G)
	relSpeed float64 // role-relevant throughput relative to the pool's fastest flavor
	reps     []*replica
	// xfer estimates the expected KV-transfer delay for a mean input length
	// when this flavor prefills into a disaggregated decode pool; nil = free.
	xfer func(isl float64) float64
	// chunkOver prices the per-chunk overhead of chunking a prompt of the
	// given length on this flavor's engines; nil when chunked prefill is
	// disabled, keeping every pre-chunking decision bit-identical.
	chunkOver func(promptTokens float64) float64
}

// FlavorInfo describes one replica flavor for reports and observers.
type FlavorInfo struct {
	// Name is the hardware display name (hw.Cluster.Name, e.g. "A100-80G").
	Name string
	// Replicas is how many of the pool's replicas run this flavor.
	Replicas int
	// CostWeight is the normalized cost per replica-second (1.0 = A100-80G).
	CostWeight float64
	// RelSpeed is the flavor's role-relevant throughput relative to the
	// pool's fastest flavor (1.0 = fastest), the probe-normalization factor.
	RelSpeed float64
}

// replica is the pool's bookkeeping around one engine.
type replica struct {
	eng *engine.Engine
	idx int
	flv *flavor

	active   bool    // provisioned (may still be activating)
	awake    bool    // activation delay elapsed; eligible for traffic
	draining bool    // scaling in: no new traffic, retires when drained
	wakeAt   float64 // activation time of the pending/last activation
	down     bool    // crashed, under repair (fault injection); unroutable
	downAt   float64 // when the current down span began
	repairAt float64 // when the current repair completes (valid while down)

	routed    int
	inHeap    bool // a step event for this replica is in the event heap
	pendingIn int  // booked KV transfers in flight toward this replica

	// Warm probe state: est holds QuantileEntry for every running and
	// queued request, rebuilt lazily after the replica's state changes.
	// curSum is ΣCurrent over the same requests — the sampler-free part of
	// bestProbe's lower bound — valid while curValid. invalidate clears
	// both; ensureEst sets both.
	est      core.PeakEstimator
	sampler  *dist.Sampler
	estValid bool
	curSum   int
	curValid bool

	activeAt   float64 // when the current active span began
	activeSecs float64 // closed active spans (replica-seconds accounting)
}

// invalidate marks the replica's probe state stale after its engine's state
// changed (a step, a submitted or delivered request): the estimator and the
// bound's ΣCurrent are recomputed together on the next probe.
func (rep *replica) invalidate() {
	rep.estValid = false
	rep.curValid = false
}

// probeStats counts the FutureHeadroom routing probe's work over the pool's
// life. Every bestProbe call accounts for each accepting replica exactly
// once, as a probe or as a pruned replica.
type probeStats struct {
	// probes counts replicas bestProbe evaluated exactly: a PeakWith on the
	// replica's estimator, rebuilt first when stale.
	probes int
	// pruned counts replicas bestProbe skipped because their lower bound
	// showed they could not pass the gate or beat the best replica so far.
	pruned int
	// rebuilds counts estimator rebuilds, from every caller (routing probes,
	// decode picks, reactive load).
	rebuilds int
}

// Pool owns one role's replicas: routing, warm probe state, and scaling
// mechanics. The cluster owns the shared event clock; the pool pushes its
// activation and tick events through it.
type Pool struct {
	cfg Config
	clu *Cluster
	id  int // pool index in the cluster

	reps    []*replica
	flavors []*flavor // replica flavor groups, in first-appearance order

	rr        int
	accepting []*replica // active, awake, not draining; index order

	probeOrder []probeCand // bestProbe scratch, reused across calls
	stats      probeStats

	plan          *planner
	planScheduled bool
	flavActive    []int // scratch: active replica count per flavor at tick time

	scaleUps int
	scaleIns int
}

// newPool validates one pool configuration and builds it into the cluster.
func newPool(c *Cluster, id int, cfg Config) (*Pool, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("cluster: pool %d: at least one replica required", id)
	}
	for i, e := range cfg.Replicas {
		if e.Role() != cfg.Role {
			return nil, fmt.Errorf("cluster: pool %d is %v but replica %d's engine is %v",
				id, cfg.Role, i, e.Role())
		}
	}
	if cfg.Quantile == 0 {
		cfg.Quantile = 0.9
	}
	if !(cfg.Quantile >= 0 && cfg.Quantile <= 1) { // rejects NaN too
		return nil, fmt.Errorf("cluster: quantile %v outside [0,1]", cfg.Quantile)
	}
	if cfg.Scale != nil && cfg.Planner != nil {
		return nil, fmt.Errorf("cluster: reactive Scale and predictive Planner are mutually exclusive")
	}
	if !(cfg.AffinityWeight >= 0) { // rejects NaN too
		return nil, fmt.Errorf("cluster: negative affinity weight %v", cfg.AffinityWeight)
	}
	initial := len(cfg.Replicas)
	if cfg.Scale != nil {
		if cfg.Scale.Min < 1 || cfg.Scale.Max > len(cfg.Replicas) || cfg.Scale.Min > cfg.Scale.Max {
			return nil, fmt.Errorf("cluster: bad autoscale bounds [%d, %d] for %d replicas",
				cfg.Scale.Min, cfg.Scale.Max, len(cfg.Replicas))
		}
		if cfg.Scale.EvalInterval < 0 {
			return nil, fmt.Errorf("cluster: negative autoscale eval interval %v", cfg.Scale.EvalInterval)
		}
		initial = cfg.Scale.Min
	}
	p := &Pool{cfg: cfg, clu: c, id: id}
	if cfg.Planner != nil {
		pc := *cfg.Planner
		if err := pc.validate(len(cfg.Replicas)); err != nil {
			return nil, err
		}
		pc = pc.withDefaults()
		p.cfg.Planner = &pc
		initial = pc.Min
	}
	p.reps = make([]*replica, len(cfg.Replicas))
	for i, e := range cfg.Replicas {
		p.reps[i] = &replica{eng: e, idx: i}
	}
	for i := 0; i < initial; i++ {
		p.reps[i].active = true
		p.reps[i].awake = true
	}
	p.buildFlavors(c)
	if cfg.homogeneousPlan && len(p.flavors) > 1 {
		return nil, fmt.Errorf("cluster: pool %d: the homogeneous plan is the single-flavor reference, pool has %d flavors", id, len(p.flavors))
	}
	if p.cfg.Planner != nil {
		p.plan = newPlanner(*p.cfg.Planner, p.flavors, cfg.Role, cfg.homogeneousPlan)
		for _, rep := range p.reps {
			rep.eng.AddFinishHook(func(_ float64, r *request.Request) {
				// A decode pool corrects on observed MTPOT — the metric it
				// owns: the delivery→next-token queueing gap that mean TPOT
				// amortises away is exactly what its sizing must absorb.
				tpot := r.TPOT()
				if cfg.Role == engine.RoleDecodeOnly {
					tpot = r.MTPOT()
				}
				p.plan.observeFinish(r.Generated, r.TTFT(), tpot)
			})
			if rep.eng.PrefixCacheEnabled() {
				// Feed the planner's hit-rate estimate so sizing prices the
				// uncached prefill suffix, not the full prompt. First-pass
				// admissions only: a re-admission after eviction re-reports
				// the same prompt, and a migrated request arrives with its
				// KV already in flight.
				rep.eng.AddAdmitHook(func(_ float64, admitted []*request.Request) {
					for _, r := range admitted {
						if r.Admissions == 1 && !r.Migrated {
							p.plan.observeCacheHit(r.CachedTokens+r.RestoredTokens, r.InputLen)
						}
					}
				})
			}
		}
	}
	p.rebuildAccepting()
	return p, nil
}

// buildFlavors groups the pool's replicas by hardware deployment and
// derives each flavor's cost weight and relative speed. Called once at
// construction, after the replica list exists.
func (p *Pool) buildFlavors(c *Cluster) {
	type key struct {
		pm       *perf.Model
		capacity int
	}
	seen := map[key]*flavor{}
	for _, rep := range p.reps {
		k := key{rep.eng.Perf(), rep.eng.Pool().CapacityTokens()}
		f := seen[k]
		if f == nil {
			f = &flavor{
				name:      k.pm.Cluster().Name(),
				pm:        k.pm,
				capacity:  k.capacity,
				cost:      k.pm.CostWeight(),
				xfer:      c.transferEstimate(k.pm.Spec().KVBytesPerToken()),
				chunkOver: rep.eng.ChunkOverheadCurve(),
			}
			seen[k] = f
			p.flavors = append(p.flavors, f)
		}
		f.reps = append(f.reps, rep)
		rep.flv = f
	}
	maxSpeed := 0.0
	for _, f := range p.flavors {
		f.relSpeed = p.flavorSpeed(f)
		if f.relSpeed > maxSpeed {
			maxSpeed = f.relSpeed
		}
	}
	// Normalize against the fastest flavor. A single-flavor pool divides a
	// value by itself, so relSpeed is exactly 1.0 and every speed-normalized
	// probe score is bit-identical to the raw memory fraction.
	for _, f := range p.flavors {
		f.relSpeed /= maxSpeed
	}
	p.flavActive = make([]int, len(p.flavors))
}

// speedRefPrompt / speedRefBatch fix the reference operating point the
// cross-flavor speed ratio is evaluated at. Any fixed point works — the
// ratio of two perf curves is what matters — and these sit in the middle of
// the ShareGPT shape the experiments serve.
const (
	speedRefPrompt = 512
	speedRefBatch  = 32
)

// flavorSpeed is the role-relevant service rate used to normalize
// FutureHeadroom probes across flavors: a 50%-full fast replica clears its
// predicted peak sooner than a 50%-full slow one, so raw memory fractions
// are not comparable across GPU types. Prefill pools rate by prompt
// latency; decode and mixed pools by decode-step throughput.
func (p *Pool) flavorSpeed(f *flavor) float64 {
	if p.cfg.Role == engine.RolePrefillOnly {
		return 1 / f.pm.PrefillTime(speedRefPrompt)
	}
	return float64(speedRefBatch) / f.pm.DecodeTime(speedRefBatch, speedRefBatch*speedRefPrompt)
}

// Flavors describes the pool's replica flavor groups.
func (p *Pool) Flavors() []FlavorInfo {
	out := make([]FlavorInfo, len(p.flavors))
	for i, f := range p.flavors {
		out[i] = FlavorInfo{Name: f.name, Replicas: len(f.reps), CostWeight: f.cost, RelSpeed: f.relSpeed}
	}
	return out
}

// activeByFlavor refreshes and returns the per-flavor active (non-draining)
// replica counts in flavor order — the planner tick's view of the fleet.
// The returned slice is pool-owned scratch, valid until the next call.
func (p *Pool) activeByFlavor() []int {
	for i, f := range p.flavors {
		n := 0
		for _, rep := range f.reps {
			if rep.active && !rep.draining && !rep.down {
				n++
			}
		}
		p.flavActive[i] = n
	}
	return p.flavActive
}

// Role returns the pool's serving role.
func (p *Pool) Role() engine.Role { return p.cfg.Role }

// RoutedCounts returns how many requests each replica received.
func (p *Pool) RoutedCounts() []int {
	out := make([]int, len(p.reps))
	for i, rep := range p.reps {
		out[i] = rep.routed
	}
	return out
}

// ScaleEvents returns (scale-out, scale-in) decision counts.
func (p *Pool) ScaleEvents() (out, in int) { return p.scaleUps, p.scaleIns }

// ActiveReplicas returns the number of provisioned, non-draining replicas.
// A crashed replica under repair does not count: it serves nothing, and the
// planner's view of the fleet must see the capacity hole the crash tore.
func (p *Pool) ActiveReplicas() int {
	n := 0
	for _, rep := range p.reps {
		if rep.active && !rep.draining && !rep.down {
			n++
		}
	}
	return n
}

// ReplicaSeconds returns the accumulated provisioned time across the pool:
// the integral of the active replica count over the run, the cost side of
// the autoscaling comparison. Complete after Serve returns.
func (p *Pool) ReplicaSeconds() float64 {
	sum := 0.0
	for _, rep := range p.reps {
		sum += rep.activeSecs
	}
	return sum
}

// CostSeconds returns the normalized provisioning cost across the pool:
// each replica's active-time integral scaled by its flavor's cost weight
// (1.0 = one A100-80G replica-second). For a single-A100 pool this equals
// ReplicaSeconds; for a mixed fleet it is the axis the cost-aware planner
// minimizes. Complete after Serve returns.
func (p *Pool) CostSeconds() float64 {
	sum := 0.0
	for _, rep := range p.reps {
		sum += rep.activeSecs * rep.flv.cost
	}
	return sum
}

// PlanHistory returns the planner's evaluation trace (nil without a
// planner).
func (p *Pool) PlanHistory() []PlanSample {
	if p.plan == nil {
		return nil
	}
	return p.plan.History
}

// Imbalance returns the coefficient of variation of per-replica routed
// counts (0 = perfectly balanced). Only meaningful without autoscaling.
func (p *Pool) Imbalance() float64 {
	var sum float64
	for _, rep := range p.reps {
		sum += float64(rep.routed)
	}
	n := float64(len(p.reps))
	mean := sum / n
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, rep := range p.reps {
		d := float64(rep.routed) - mean
		ss += d * d
	}
	return math.Sqrt(ss/n) / mean
}

// tickInterval returns the pool's autoscaler tick period, 0 when untimed.
func (p *Pool) tickInterval() float64 {
	if p.plan != nil {
		return p.cfg.Planner.Interval
	}
	if p.cfg.Scale != nil {
		return p.cfg.Scale.EvalInterval
	}
	return 0
}

// ensureTick (re)arms the pool's periodic autoscaler tick after an arrival
// or delivery; ticks self-rearm while the cluster is busy and stop when it
// idles.
func (p *Pool) ensureTick(now float64) {
	if p.planScheduled {
		return
	}
	if iv := p.tickInterval(); iv > 0 {
		p.scheduleTick(now + iv)
	}
}

func (p *Pool) scheduleTick(at float64) {
	p.planScheduled = true
	p.clu.pushEvent(event{at: at, kind: evPlan, pool: p.id})
}

// rebuildAccepting refreshes the routing candidate list. Called only when
// the activation state changes, never per arrival.
func (p *Pool) rebuildAccepting() {
	p.accepting = p.accepting[:0]
	for _, rep := range p.reps {
		if rep.active && rep.awake && !rep.draining && !rep.down {
			p.accepting = append(p.accepting, rep)
		}
	}
}

// fallbackReplica is the no-accepting-replica escape hatch: every
// provisioned replica is still activating (or draining), so fall back to
// the first active one — traffic is never dropped by the pool itself. A
// crashed replica is the last resort of the last resort: only when every
// replica is down does the pool hand one back (work routed to it waits out
// the repair; recovery re-arms its step events).
func (p *Pool) fallbackReplica() *replica {
	for _, rep := range p.reps {
		if rep.active && !rep.down {
			return rep
		}
	}
	for _, rep := range p.reps {
		if rep.active {
			return rep
		}
	}
	return p.reps[0]
}

// pick selects the replica for one request under the configured policy.
func (p *Pool) pick(req *request.Request) *replica {
	cands := p.accepting
	if len(cands) == 0 {
		return p.fallbackReplica()
	}
	switch p.cfg.Policy {
	case LeastLoaded:
		best, bestLoad := cands[0], math.MaxInt
		for _, rep := range cands {
			load := rep.eng.QueueLen() + rep.eng.RunningLen()
			if load < bestLoad {
				best, bestLoad = rep, load
			}
		}
		return best
	case FutureHeadroom:
		// The ungated placement argmin: cands is non-empty, so it is never
		// nil.
		return p.bestProbe(req, math.Inf(1))
	default: // RoundRobin — rotation starts at the first accepting replica
		rep := cands[p.rr%len(cands)]
		p.rr++
		return rep
	}
}

// route records and executes one routing decision into the pool.
func (p *Pool) route(req *request.Request) *replica {
	rep := p.pick(req)
	p.routeTo(req, rep)
	return rep
}

// routeTo records one routing decision whose replica was already chosen
// (cost-vector decode picks, admission placements reusing the gate's
// argmin, deliver-time re-routes).
func (p *Pool) routeTo(req *request.Request, rep *replica) {
	rep.routed++
	if p.cfg.OnRoute != nil {
		p.cfg.OnRoute(req, rep.idx)
	}
}

// probe returns the predicted future peak memory of a replica's batch plus
// queue plus the candidate, as a fraction of its capacity. The warm path is
// allocation-free: the per-replica estimator is rebuilt in place only when
// the replica's state changed, and the candidate is an O(log B) PeakWith.
func (p *Pool) probe(rep *replica, req *request.Request) float64 {
	if p.cfg.naiveProbe {
		batch := rep.eng.RunningRequests()
		batch = append(batch, rep.eng.QueuedRequests()...)
		batch = append(batch, req)
		peak := core.PredictedBatchPeak(batch, rep.eng.History(), p.cfg.Quantile)
		return float64(peak) / float64(rep.eng.Pool().CapacityTokens())
	}
	p.ensureEst(rep)
	cand := core.QuantileEntry(req, rep.sampler, p.cfg.Quantile)
	return float64(rep.est.PeakWith(cand)) / float64(rep.eng.Pool().CapacityTokens())
}

// betterFit is the shared (fits, speed-normalized score) lexicographic
// ranking behind every flavor-aware replica choice: bestProbe's argmin
// (which is also pick()'s FutureHeadroom arm) and the final tie-break of
// the decode cost vector. Speed never makes a predicted overflow fit, so a
// fitting slow replica always beats an overflowing fast one.
func betterFit(fits bool, score float64, bestFits bool, bestScore float64) bool {
	if fits != bestFits {
		return fits
	}
	return score < bestScore
}

// probeKey is bestProbe's argmin key: (fits, speed-normalized score) under
// betterFit, then the lower replica index, so the winner is the one the
// index-order first-wins scan would choose.
type probeKey struct {
	fits  bool
	score float64
	idx   int
}

func (k probeKey) less(o probeKey) bool {
	if k.fits != o.fits || k.score != o.score {
		return betterFit(k.fits, k.score, o.fits, o.score)
	}
	return k.idx < o.idx
}

// probeCand is one replica in a bestProbe sweep: its affinity bonus and the
// optimistic key its lower bound allows.
type probeCand struct {
	rep *replica
	aff float64
	opt probeKey
}

// bestProbe returns the (fits, speed-normalized score) argmin among
// accepting replicas whose *raw* probe fraction passes the admission gate,
// or nil when no replica passes — the gate's signal. gate = +Inf is pick()'s
// FutureHeadroom argmin (nil only when no replica accepts, e.g. everything
// is still activating), so a placement reusing the returned replica is
// decision-identical to routing again. A finite gate restricts the argmin
// to gate-passing replicas, which can diverge from pick() in a
// heterogeneous pool (a fast replica over the gate but under 1.0 is
// pickable yet not placeable — the gate is admission's stricter contract).
// In a single-flavor pool score == fraction and fits is a threshold on that
// same fraction, so the qualifying argmin coincides with the pre-flavor
// raw-fraction behavior whenever the gate passes at all.
//
// The sweep is a branch and bound that returns exactly the exhaustive
// argmin. A replica's probe is PeakWith, which is never below ΣCurrent of
// its batch and queue plus the candidate's Current (every Remaining is
// clamped ≥ 0); that bound needs no sampler and no estimator. Replicas whose
// bound is over the gate are skipped outright. The replica with the best
// optimistic key — the key its bound allows — is probed first, so the
// incumbent is strong from the start; every other replica is probed only
// if its optimistic key beats the best exact key so far, and otherwise
// skipped without rebuilding its estimator. The naiveProbe reference
// computes no bound and probes every replica.
func (p *Pool) bestProbe(req *request.Request, gate float64) *replica {
	candCur := core.EntryCurrent(req)
	cands := p.probeOrder[:0]
	first := -1
	for _, rep := range p.accepting {
		lb := math.Inf(-1) // the naive reference: nothing is ever pruned
		if !p.cfg.naiveProbe {
			lb = float64(p.probeCurrent(rep)+candCur) / float64(rep.eng.Pool().CapacityTokens())
			if lb > gate {
				p.stats.pruned++
				continue
			}
		}
		aff := p.affinity(rep, req)
		opt := probeKey{fits: lb <= 1, score: lb/rep.flv.relSpeed - aff, idx: rep.idx}
		if first < 0 || opt.less(cands[first].opt) {
			first = len(cands)
		}
		cands = append(cands, probeCand{rep: rep, aff: aff, opt: opt})
	}
	p.probeOrder = cands
	if first < 0 {
		return nil
	}
	cands[0], cands[first] = cands[first], cands[0]
	var bestRep *replica
	var best probeKey
	for _, c := range cands {
		if bestRep != nil && !c.opt.less(best) {
			p.stats.pruned++
			continue
		}
		p.stats.probes++
		f := p.probe(c.rep, req)
		if f > gate {
			continue
		}
		k := probeKey{fits: f <= 1, score: f/c.rep.flv.relSpeed - c.aff, idx: c.rep.idx}
		if bestRep == nil || k.less(best) {
			bestRep, best = c.rep, k
		}
	}
	return bestRep
}

// affinity is the prefix-cache routing bonus subtracted from a replica's
// speed-normalized probe score: AffinityWeight × the fraction of the
// request's prompt the replica's resident prefix blocks already hold. The
// match is an exact read-only probe of the replica's KV pool. Exactly 0
// whenever the blend is off, the request carries no prefix hashes, or
// caching is disabled — the score then reduces bit-identically to
// frac/relSpeed.
func (p *Pool) affinity(rep *replica, req *request.Request) float64 {
	w := p.cfg.AffinityWeight
	if w == 0 || len(req.PrefixHashes) == 0 || req.InputLen <= 0 {
		return 0
	}
	hit := rep.eng.Pool().MatchPrefix(req.PrefixHashes)
	if hit == 0 {
		return 0
	}
	if hit > req.InputLen {
		hit = req.InputLen
	}
	return w * float64(hit) / float64(req.InputLen)
}

// bestCachedTokens returns the largest prefix-cache coverage — resident
// hits plus restorable offloaded blocks — any accepting replica could serve
// for this request, capped at the prompt length. It is the admission
// floor's optimistic discount: the floor is a best-case bound, so it may
// assume the request routes to the best-matching replica and that restores
// are free (the engine prices them at wire time ≥ 0, which the floor
// omits; a restore it declines prefills instead, which the cache-blind
// term already covers). 0 whenever caching is off or the request carries
// no hashes, leaving the floor exactly at its cache-blind value.
func (p *Pool) bestCachedTokens(r *request.Request) int {
	if len(r.PrefixHashes) == 0 {
		return 0
	}
	best := 0
	for _, rep := range p.accepting {
		kvp := rep.eng.Pool()
		hit, off := kvp.MatchPrefixDetail(r.PrefixHashes)
		if t := (hit + off) * kvp.PrefixBlockTokens(); t > best {
			best = t
		}
	}
	if best > r.InputLen {
		best = r.InputLen
	}
	return best
}

// load returns the predicted peak of a replica's batch plus queue (no
// candidate) as a fraction of capacity — the reactive autoscaler's signal.
func (p *Pool) load(rep *replica) float64 {
	if p.cfg.naiveProbe {
		batch := rep.eng.RunningRequests()
		batch = append(batch, rep.eng.QueuedRequests()...)
		peak := core.PredictedBatchPeak(batch, rep.eng.History(), p.cfg.Quantile)
		return float64(peak) / float64(rep.eng.Pool().CapacityTokens())
	}
	p.ensureEst(rep)
	return float64(rep.est.Peak()) / float64(rep.eng.Pool().CapacityTokens())
}

// ensureEst rebuilds a replica's warm estimator if its engine stepped or
// received a request since the last probe, refreshing ΣCurrent with it.
func (p *Pool) ensureEst(rep *replica) {
	if rep.estValid {
		return
	}
	rep.sampler = rep.eng.History().Sampler()
	rep.est.Reset()
	sum := 0
	push := func(r *request.Request) {
		e := core.QuantileEntry(r, rep.sampler, p.cfg.Quantile)
		sum += e.Current
		rep.est.Push(e)
	}
	rep.eng.ForEachRunning(push)
	rep.eng.ForEachQueued(push)
	rep.curSum, rep.curValid = sum, true
	rep.estValid = true
	p.stats.rebuilds++
}

// probeCurrent returns ΣCurrent over a replica's running and queued
// requests, summed once per state change: an O(B) pass with no sampler
// and no sort.
func (p *Pool) probeCurrent(rep *replica) int {
	if !rep.curValid {
		sum := 0
		add := func(r *request.Request) { sum += core.EntryCurrent(r) }
		rep.eng.ForEachRunning(add)
		rep.eng.ForEachQueued(add)
		rep.curSum, rep.curValid = sum, true
	}
	return rep.curSum
}

// settleProbe builds a replica's estimator when its ΣCurrent was taken
// from the current engine state but the estimator was not, so both come
// from one state. A crash calls it before emptying the engine: the crash
// does not invalidate the replica's probe state, and a later lazy build
// would otherwise read the emptied engine while ΣCurrent still counted the
// lost requests.
func (p *Pool) settleProbe(rep *replica) {
	if rep.curValid && !rep.estValid {
		p.ensureEst(rep)
	}
}

// reactiveScale applies the high/low-water policy on the mean predicted
// load of the accepting replicas (the original router's autoscaler). On a
// heterogeneous pool the choice of *which* replica is cost-aware: scale-out
// buys the cheapest cold flavor, scale-in sheds the worst cost-per-goodput
// drained replica. Homogeneous pools reduce to the original index-order
// policy (all costs tie, and ties keep the pre-flavor pick).
func (p *Pool) reactiveScale(now float64) {
	sc := p.cfg.Scale
	if len(p.accepting) == 0 {
		return
	}
	var loadSum float64
	for _, rep := range p.accepting {
		loadSum += p.load(rep)
	}
	mean := loadSum / float64(len(p.accepting))
	if mean > sc.HighWater && p.ActiveReplicas() < sc.Max {
		if rep := p.cheapestCold(); rep != nil {
			p.activate(rep, now, sc.ActivationDelay)
		}
		return
	}
	if mean < sc.LowWater && p.ActiveReplicas() > sc.Min {
		// Deactivate a fully drained replica. Idle() (not just empty
		// queue+batch) so a replica with a routed arrival still in its
		// arrival heap keeps its replica-seconds clock running.
		if rep := p.costliestDrained(); rep != nil {
			p.scaleIns++
			p.retire(rep, now)
		}
	}
}

// cheapestCold returns the cold replica with the lowest flavor cost weight
// (ties: lowest index, the pre-flavor order), or nil when every replica is
// provisioned or down.
func (p *Pool) cheapestCold() *replica {
	var best *replica
	for _, rep := range p.reps {
		if rep.active || rep.down {
			continue
		}
		if best == nil || rep.flv.cost < best.flv.cost {
			best = rep
		}
	}
	return best
}

// costliestDrained returns the active, fully drained replica with the
// highest cost per unit of role-relevant throughput — flavor cost weight
// over relative speed — so reactive scale-in sheds the least
// cost-effective capacity first. Ties keep the highest index, the
// pre-flavor pick. nil when nothing is drained.
func (p *Pool) costliestDrained() *replica {
	var best *replica
	var bestRatio float64
	for i := len(p.reps) - 1; i >= 0; i-- {
		rep := p.reps[i]
		if !rep.active || rep.down || !p.drained(rep) {
			continue
		}
		ratio := rep.flv.cost / rep.flv.relSpeed
		if best == nil || ratio > bestRatio {
			best, bestRatio = rep, ratio
		}
	}
	return best
}

// applyTargets moves the pool toward the planner's per-flavor replica
// targets (flavor order), applying the scalar rule within each flavor's
// replica subset. A single-flavor pool reduces to the pre-flavor pool-wide
// applyTarget: the one subset is the whole replica list in index order.
func (p *Pool) applyTargets(now float64, targets []int) {
	for i, f := range p.flavors {
		p.applyTarget(now, targets[i], f.reps)
	}
}

// applyTarget moves one replica subset toward its target count: cancel
// draining first (warm capacity), then activate cold replicas; scale in by
// retiring idle replicas immediately and draining busy ones.
func (p *Pool) applyTarget(now float64, target int, reps []*replica) {
	active := 0
	for _, rep := range reps {
		if rep.active && !rep.draining && !rep.down {
			active++
		}
	}
	for active < target {
		undrained := false
		for _, rep := range reps {
			if rep.active && rep.draining {
				rep.draining = false
				p.scaleUps++
				p.rebuildAccepting()
				undrained = true
				break
			}
		}
		if undrained {
			active++
			continue
		}
		var cold *replica
		for _, rep := range reps {
			if !rep.active && !rep.down {
				cold = rep
				break
			}
		}
		if cold == nil {
			return
		}
		p.activate(cold, now, p.cfg.Planner.ActivationDelay)
		active++
	}
	for active > target {
		rep := p.scaleInVictim(reps)
		if rep == nil {
			return
		}
		p.scaleIns++
		if p.drained(rep) {
			p.retire(rep, now)
		} else {
			rep.draining = true
			p.rebuildAccepting()
		}
		active--
	}
}

// drained reports whether a replica holds no work now or in flight toward
// it: its engine is idle and no booked KV transfer is still on the wire (a
// pending migration is invisible to the engine until delivery, but retiring
// its destination would strand it).
func (p *Pool) drained(rep *replica) bool {
	return rep.pendingIn == 0 && rep.eng.Idle()
}

// scaleInVictim picks the next replica to scale in from one subset: idle
// ones first, then the highest-index busy one (which will drain).
func (p *Pool) scaleInVictim(reps []*replica) *replica {
	for i := len(reps) - 1; i >= 0; i-- {
		rep := reps[i]
		if rep.active && !rep.draining && !rep.down && p.drained(rep) {
			return rep
		}
	}
	for i := len(reps) - 1; i >= 0; i-- {
		rep := reps[i]
		if rep.active && !rep.draining && !rep.down {
			return rep
		}
	}
	return nil
}

// activate provisions a replica: it starts paying replica-seconds now and
// accepts traffic after the activation delay.
func (p *Pool) activate(rep *replica, now, delay float64) {
	rep.active = true
	rep.draining = false
	rep.activeAt = now
	p.scaleUps++
	if delay <= 0 {
		rep.awake = true
		rep.wakeAt = now
		p.rebuildAccepting()
		return
	}
	rep.awake = false
	rep.wakeAt = now + delay
	p.clu.pushEvent(event{at: rep.wakeAt, kind: evActivate, pool: p.id, rep: rep.idx})
}

// retire closes a replica's active span (scale-in decision already
// counted). A crashed replica's span was already closed at the crash, and
// its repair time is never billed.
func (p *Pool) retire(rep *replica, now float64) {
	if !rep.active {
		return
	}
	rep.active = false
	rep.awake = false
	rep.draining = false
	if !rep.down {
		if span := now - rep.activeAt; span > 0 {
			rep.activeSecs += span
		}
	}
	p.rebuildAccepting()
}

// activationDelay is the pool's configured activation delay (from the SLA
// planner or the reactive policy; 0 without an autoscaler). It is also the
// re-activation price a repaired replica pays before accepting traffic.
func (p *Pool) activationDelay() float64 {
	if p.cfg.Planner != nil {
		return p.cfg.Planner.ActivationDelay
	}
	if p.cfg.Scale != nil {
		return p.cfg.Scale.ActivationDelay
	}
	return 0
}
