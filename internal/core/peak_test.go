package core

import (
	"testing"
	"testing/quick"

	"github.com/lightllm-go/lightllm/internal/dist"
	"github.com/lightllm-go/lightllm/internal/request"
	"github.com/lightllm-go/lightllm/internal/rng"
)

// futurePeakWithCandidate computes M* for entries plus one extra candidate
// without mutating entries — the naive per-candidate path (one allocation
// and a full re-sort per call), the PeakEstimator's reference in the
// cross-check tests and the naive admission baseline.
func futurePeakWithCandidate(entries []Entry, cand Entry) int {
	tmp := make([]Entry, len(entries)+1)
	copy(tmp, entries)
	tmp[len(entries)] = cand
	return FutureRequiredMemory(tmp)
}

// naiveAdmit is Admit with each candidate's M* computed by the reference
// clone+sort futurePeakWithCandidate instead of the PeakEstimator: the
// oracle of TestPastFutureDecisionsBitIdenticalToNaive and the baseline of
// BenchmarkAdmitHotPath/naive. It predicts through the scheduler's own
// global-window path, so it covers every configuration except PerClass.
func naiveAdmit(pf *PastFuture, v *View, queue []*request.Request) int {
	if len(queue) == 0 {
		return 0
	}
	global := pf.usableSampler(v)
	threshold := int(float64(v.CapacityTokens) * (1 - pf.cfg.Reserved))
	multi := len(v.Running)+len(queue) < pf.cfg.SmallBatch
	entries := make([]Entry, 0, len(v.Running)+len(queue))
	for _, r := range v.Running {
		pred := pf.predict(global, r, multi)
		r.PredictedLen = pred
		entries = append(entries, Entry{Current: r.KVLanded(), Remaining: pred - r.Generated + r.PrefillRemaining()})
	}
	admitted, promptNeed := 0, 0
	for _, q := range queue {
		pred := pf.predict(global, q, multi)
		q.PredictedLen = pred
		cand := Entry{Current: q.Footprint(), Remaining: pred - q.Generated}
		if promptNeed+q.Footprint() > v.FreeTokens {
			break
		}
		if futurePeakWithCandidate(entries, cand) > threshold {
			break
		}
		entries = append(entries, cand)
		promptNeed += q.Footprint()
		admitted++
	}
	return admitted
}

// TestPeakEstimatorMatchesReferenceQuick: Peak() after any Push sequence is
// bit-identical to the reference FutureRequiredMemory over the same multiset.
func TestPeakEstimatorMatchesReferenceQuick(t *testing.T) {
	f := func(raw []struct{ C, R uint8 }) bool {
		var est PeakEstimator
		entries := make([]Entry, len(raw))
		for i, x := range raw {
			entries[i] = Entry{Current: int(x.C), Remaining: int(x.R%64) - 2} // include negatives
			est.Push(entries[i])
		}
		return est.Peak() == FutureRequiredMemory(entries)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestPeakEstimatorPeakWithMatchesReferenceQuick: PeakWith(cand) equals the
// reference clone+sort path, interleaved with incremental pushes (the exact
// admission-loop access pattern: sorted build, query, push, query, ...).
func TestPeakEstimatorPeakWithMatchesReferenceQuick(t *testing.T) {
	f := func(batch []struct{ C, R uint8 }, cands []struct{ C, R uint8 }) bool {
		var est PeakEstimator
		entries := make([]Entry, 0, len(batch)+len(cands))
		for _, x := range batch {
			e := Entry{Current: int(x.C), Remaining: int(x.R % 48)}
			entries = append(entries, e)
			est.Push(e)
		}
		for i, x := range cands {
			cand := Entry{Current: int(x.C), Remaining: int(x.R%48) - 1}
			if est.PeakWith(cand) != futurePeakWithCandidate(entries, cand) {
				return false
			}
			if i%2 == 0 { // admit every other candidate
				est.Push(cand)
				entries = append(entries, cand)
				if est.Peak() != FutureRequiredMemory(entries) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPeakEstimatorEmptyAndReset(t *testing.T) {
	var est PeakEstimator
	if got := est.Peak(); got != 0 {
		t.Fatalf("empty Peak = %d", got)
	}
	if got := est.PeakWith(Entry{Current: 3, Remaining: 4}); got != 7 {
		t.Fatalf("empty PeakWith = %d, want 7", got)
	}
	est.Push(Entry{Current: 10, Remaining: 5})
	if got := est.Peak(); got != 15 {
		t.Fatalf("Peak = %d, want 15", got)
	}
	est.Reset()
	if est.Len() != 0 || est.Peak() != 0 {
		t.Fatalf("Reset left Len=%d Peak=%d", est.Len(), est.Peak())
	}
	// Reuse after Reset must be consistent.
	est.Push(Entry{Current: 4, Remaining: 2})
	est.Push(Entry{Current: 5, Remaining: 4})
	est.Push(Entry{Current: 3, Remaining: 3})
	if got := est.Peak(); got != 18 {
		t.Fatalf("Peak after reset = %d, want 18 (hand-computed)", got)
	}
}

func TestPeakEstimatorPushTrue(t *testing.T) {
	var batch []*request.Request
	var est PeakEstimator
	for i := 0; i < 6; i++ {
		r := request.New(int64(i), 10+i, 5+i*3, 100, 0)
		for j := 0; j < i; j++ {
			r.EmitToken(float64(j))
		}
		batch = append(batch, r)
		est.PushTrue(r)
	}
	if got, want := est.Peak(), TrueFutureRequiredMemory(batch); got != want {
		t.Fatalf("PushTrue peak %d != TrueFutureRequiredMemory %d", got, want)
	}
}

// TestPastFutureDecisionsBitIdenticalToNaive: deterministic-mode admissions
// must agree between the PeakEstimator hot path and the naiveAdmit
// reference on randomized views, batches, and queues (the acceptance
// criterion).
func TestPastFutureDecisionsBitIdenticalToNaive(t *testing.T) {
	src := rng.New(2024)
	for trial := 0; trial < 200; trial++ {
		r := src.Split()
		w := dist.NewWindow(1 + r.Intn(300))
		histN := r.Intn(400)
		for i := 0; i < histN; i++ {
			w.Add(1 + r.Intn(600))
		}
		capacity := 500 + r.Intn(20_000)

		// Two structurally identical states (same per-trial seed) so
		// PredictedLen scratch writes from one scheduler cannot leak into
		// the other's decisions.
		mkState := func() (*View, []*request.Request) {
			rr := rng.New(uint64(trial)*7 + 13)
			mkReq := func(id int64) *request.Request {
				req := request.New(id, 1+rr.Intn(200), 1+rr.Intn(300), 1+rr.Intn(600), 0)
				gen := rr.Intn(req.TrueOutputLen + 1)
				for j := 0; j < gen && !req.Done(); j++ {
					req.EmitToken(float64(j))
				}
				return req
			}
			used := 0
			var running []*request.Request
			for i := 0; i < rr.Intn(20); i++ {
				req := mkReq(int64(i))
				req.State = request.Running
				used += req.Footprint()
				running = append(running, req)
			}
			var queue []*request.Request
			for i := 0; i < rr.Intn(24); i++ {
				queue = append(queue, mkReq(int64(100+i)))
			}
			free := capacity - used
			if free < 0 {
				free = 0
			}
			return &View{
				CapacityTokens: capacity,
				UsedTokens:     used,
				FreeTokens:     free,
				Running:        running,
				History:        w,
			}, queue
		}

		reserved := float64(r.Intn(3)) * 0.05
		quantile := 0.5 + 0.4*r.Float64()
		fast := MustNewPastFuture(PastFutureConfig{
			Reserved: reserved, Deterministic: true, Quantile: quantile,
			MinHistory: 1 + r.Intn(50),
		})
		vFast, qFast := mkState()
		vNaive, qNaive := mkState()
		gotFast := fast.Admit(vFast, qFast)
		gotNaive := naiveAdmit(fast, vNaive, qNaive)
		if gotFast != gotNaive {
			t.Fatalf("trial %d: estimator admitted %d, naive admitted %d", trial, gotFast, gotNaive)
		}
		for i := range qFast {
			if qFast[i].PredictedLen != qNaive[i].PredictedLen {
				t.Fatalf("trial %d: queue[%d] prediction %d vs %d",
					trial, i, qFast[i].PredictedLen, qNaive[i].PredictedLen)
			}
		}
	}
}

// hotPathState builds the benchmark scenario: a warm history window, a
// running batch of 256 requests, and a 64-deep queue.
func hotPathState(batch, queue int) (*View, []*request.Request) {
	r := rng.New(7)
	w := dist.NewWindow(1000)
	for i := 0; i < 1000; i++ {
		w.Add(64 + r.Intn(1024))
	}
	used := 0
	running := make([]*request.Request, 0, batch)
	for i := 0; i < batch; i++ {
		req := request.New(int64(i), 64+r.Intn(256), 1024, 2048, 0)
		for j := 0; j < 16+r.Intn(128); j++ {
			req.EmitToken(float64(j))
		}
		req.State = request.Running
		used += req.Footprint()
		running = append(running, req)
	}
	queued := make([]*request.Request, 0, queue)
	for i := 0; i < queue; i++ {
		queued = append(queued, request.New(int64(batch+i), 64+r.Intn(256), 512, 2048, 0))
	}
	capacity := used * 6 // sized so the loop admits a prefix, then rejects
	return &View{
		CapacityTokens: capacity,
		UsedTokens:     used,
		FreeTokens:     capacity - used,
		Running:        running,
		History:        w,
	}, queued
}

// BenchmarkAdmitHotPath measures one deterministic Past-Future admission
// decision over batch=256, queue=64: the incremental PeakEstimator hot path
// against the naive clone+sort baseline. The estimator path must run with
// zero allocations in steady state (acceptance: 0 allocs/op, ≥5× faster).
func BenchmarkAdmitHotPath(b *testing.B) {
	for _, variant := range []struct {
		name  string
		admit func(pf *PastFuture, v *View, q []*request.Request) int
	}{{"estimator", (*PastFuture).Admit}, {"naive", naiveAdmit}} {
		b.Run(variant.name, func(b *testing.B) {
			pf := MustNewPastFuture(PastFutureConfig{Reserved: 0.03, Deterministic: true})
			v, q := hotPathState(256, 64)
			if variant.admit(pf, v, q) == 0 {
				b.Fatal("benchmark scenario admits nothing; not exercising the loop")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = variant.admit(pf, v, q)
			}
		})
	}
}

// BenchmarkFutureRequiredMemory compares one full-batch M* evaluation:
// the reference clone+sort+scan against a warm PeakEstimator rebuild.
func BenchmarkFutureRequiredMemory(b *testing.B) {
	mkEntries := func(n int) []Entry {
		entries := make([]Entry, n)
		for i := range entries {
			entries[i] = Entry{Current: 1000 + i*13%997, Remaining: (i * 37) % 4096}
		}
		return entries
	}
	for _, n := range []int{256, 1024} {
		entries := mkEntries(n)
		b.Run("reference/"+itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = FutureRequiredMemory(entries)
			}
		})
		b.Run("estimator/"+itoa(n), func(b *testing.B) {
			var est PeakEstimator
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				est.Reset()
				for _, e := range entries {
					est.Push(e)
				}
				_ = est.Peak()
			}
		})
	}
}

// BenchmarkPeakEstimatorPush measures the incremental Push — the O(B)
// splice-and-repair that runs once per *admitted* request — on warm
// estimators up to day-trace batch widths. Result on the reference
// machine: ~5µs/op at B=1024, ~19µs at B=4096, ~71µs at B=16384 —
// linear as predicted, 0 allocs. One splice per *admitted* request is
// noise next to the admission loop's own scan (BenchmarkAdmitHotPath:
// ~63µs at B=256, and it runs once per queued candidate), and real
// batches sit at B≈10–300, so the linear splice stays: a gapped or tree
// layout would buy nothing measurable and cost the zero-allocation
// property.
func BenchmarkPeakEstimatorPush(b *testing.B) {
	const burst = 256 // incremental pushes per untimed rebuild
	for _, n := range []int{1024, 4096, 16384} {
		base := make([]Entry, n)
		for i := range base {
			base[i] = Entry{Current: 1000 + i*13%997, Remaining: (i * 37) % 4096}
		}
		b.Run("B="+itoa(n), func(b *testing.B) {
			var est PeakEstimator
			rebuild := func() {
				est.Reset()
				for _, e := range base {
					est.Push(e)
				}
				est.Peak() // first query sorts: subsequent pushes splice
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += burst {
				b.StopTimer()
				rebuild()
				b.StartTimer()
				for j := 0; j < burst && i+j < b.N; j++ {
					est.Push(Entry{Current: 700 + j, Remaining: (j * 53) % 4096})
				}
			}
		})
	}
}

// itoa avoids strconv in this hot-path test file's benchmark names.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
