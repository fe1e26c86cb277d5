package main

// Simulated metrics, the correctness gate and the workload property
// record. Everything here is computed on the simulated clock from the
// replay's outcome, so it is exact and identical across replays of one
// seed.

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"github.com/lightllm-go/lightllm/internal/request"
)

// simMetrics are the simulated end-to-end metrics.
type simMetrics struct {
	submitted, samples int // samples: finished requests behind the percentiles
	goodput            float64
	attainment, served float64
	ttftP50, ttftP999  float64
	mtpotP999          float64
	costPerGood        float64
}

// terminal counts requests brought to a terminal state.
func (o *outcome) terminal() int { return o.submitted - o.inflight }

func computeSim(o *outcome) simMetrics {
	s := simMetrics{submitted: o.submitted, samples: len(o.finished)}
	ttft := make([]float64, len(o.finished))
	mtpot := make([]float64, len(o.finished))
	for i, r := range o.finished {
		ttft[i] = r.TTFT()
		mtpot[i] = r.MTPOT()
	}
	s.goodput = o.summary.Goodput
	s.attainment = float64(o.summary.SLAOK) / float64(o.submitted)
	s.served = float64(len(o.finished)) / float64(o.submitted)
	s.ttftP50 = quantile(ttft, 0.5)
	s.ttftP999 = quantile(ttft, 0.999)
	s.mtpotP999 = quantile(mtpot, 0.999)
	s.costPerGood = o.replicaSeconds / float64(o.summary.SLAOK)
	return s
}

// quantile is the nearest-rank q-quantile (NaN on no samples, which the
// finiteness gate rejects).
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// checkOutcome is the conservation half of the correctness gate: every
// submitted request (numbered 1..submitted) ends in exactly one terminal
// list, except at a closed-loop deadline, where the requests still open
// are in flight.
func checkOutcome(o *outcome) error {
	if o.submitted == 0 {
		return fmt.Errorf("no requests submitted")
	}
	if o.inflight < 0 {
		return fmt.Errorf("in-flight count outside [open requests, clients]")
	}
	seen := make([]uint8, o.submitted+1)
	lists := []struct {
		name string
		rs   []*request.Request
		want request.Outcome
	}{
		{"finished", o.finished, request.OutcomeCompleted},
		{"timed-out", o.timedOut, request.OutcomeDropped},
		{"failed", o.failed, request.OutcomeFailed},
		{"shed", o.shed, request.OutcomeShed},
		{"lost", o.lost, request.OutcomeFailed},
	}
	terminal := 0
	for _, l := range lists {
		for _, r := range l.rs {
			if r.ID < 1 || r.ID > int64(o.submitted) {
				return fmt.Errorf("%s request %d outside 1..%d", l.name, r.ID, o.submitted)
			}
			if seen[r.ID] != 0 {
				return fmt.Errorf("request %d ends twice (second time %s)", r.ID, l.name)
			}
			if r.Outcome != l.want {
				return fmt.Errorf("%s request %d has outcome %v", l.name, r.ID, r.Outcome)
			}
			seen[r.ID] = 1
			terminal++
		}
	}
	if terminal+o.inflight != o.submitted {
		return fmt.Errorf("%d submitted, %d terminal, %d in flight: %d requests unaccounted for",
			o.submitted, terminal, o.inflight, o.submitted-terminal-o.inflight)
	}
	if len(o.finished) == 0 || o.summary.SLAOK == 0 {
		return fmt.Errorf("no request finished within the SLA")
	}
	if o.col != nil {
		if err := o.col.CheckDecomposition(1e-6); err != nil {
			return err
		}
	}
	return nil
}

// canonicalReport renders everything simulated about a replay: a digest of
// every request's terminal state and timings, the roll-ups, and the
// simulated metrics. Replays of one seed, traced or not, must produce it
// byte for byte.
func canonicalReport(o *outcome, s simMetrics) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, l := range [][]*request.Request{o.finished, o.timedOut, o.failed, o.shed, o.lost} {
		for _, r := range l {
			put(uint64(r.ID))
			put(uint64(r.Outcome))
			put(uint64(r.Generated))
			put(uint64(r.Evictions))
			put(math.Float64bits(r.FirstTokenAt))
			put(math.Float64bits(r.FinishedAt))
			put(math.Float64bits(r.MaxGap))
		}
		put(^uint64(0))
	}
	out := fmt.Sprintf("digest %016x submitted %d inflight %d events %d\nsummary %+v\nsim %+v\n",
		h.Sum64(), o.submitted, o.inflight, o.events, o.summary, s)
	if o.fleet != nil {
		out += fmt.Sprintf("fleet %+v\n", *o.fleet)
	}
	for i, r := range o.results {
		out += fmt.Sprintf("engine %d: steps %d prefill %d evict %d admit %d out %d in %d hit %d restored %d mem %v future %v batch %v\n",
			i, r.DecodeSteps, r.PrefillIters, r.Evictions, r.Admissions, r.OutputTokens, r.InputTokens,
			r.CacheHitTokens, r.CacheRestoredTokens, r.MemUtilization, r.FutureRequiredMean, r.MeanBatchSize)
	}
	if o.col != nil {
		out += fmt.Sprintf("spans %d\n", len(o.col.Spans()))
	}
	return out
}

// propAccumulator is the workload property record: mean input and output
// lengths, and the share of prompt tokens whose prefix blocks appeared in
// an earlier request of the workload.
type propAccumulator struct {
	n              int
	input, output  int64
	reusableTokens int64
	seen           map[uint64]struct{}
}

// propBlockTokens is the prefix-hash granularity of the session workload.
const propBlockTokens = 64

// workloadProps builds the property record from every request that
// reached a terminal state, in submission (ID) order.
func workloadProps(o *outcome) propAccumulator {
	var all []*request.Request
	for _, l := range [][]*request.Request{o.finished, o.timedOut, o.failed, o.shed, o.lost} {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	var p propAccumulator
	for _, r := range all {
		p.add(r)
	}
	return p
}

func (p *propAccumulator) add(r *request.Request) {
	p.n++
	p.input += int64(r.InputLen)
	p.output += int64(r.TrueOutputLen)
	if len(r.PrefixHashes) == 0 {
		return
	}
	if p.seen == nil {
		p.seen = map[uint64]struct{}{}
	}
	for _, h := range r.PrefixHashes {
		if _, ok := p.seen[h]; ok {
			p.reusableTokens += propBlockTokens
		} else {
			p.seen[h] = struct{}{}
		}
	}
}

func (p *propAccumulator) reusableShare() float64 {
	if p.input == 0 {
		return 0
	}
	return float64(p.reusableTokens) / float64(p.input)
}

func (p *propAccumulator) meanInput() float64  { return float64(p.input) / float64(max(p.n, 1)) }
func (p *propAccumulator) meanOutput() float64 { return float64(p.output) / float64(max(p.n, 1)) }
