package obs

import (
	"fmt"
	"strings"
	"testing"

	"github.com/lightllm-go/lightllm/internal/request"
)

// feedSyntheticRun drives a recorder through a synthetic but stage-complete
// event stream: held+placed+admitted requests, a disaggregated handoff with
// a wire failure, a crash/orphan/recover episode, sheds, drops, and decode
// iterations — every event handler fires at least once.
func feedSyntheticRun(rec *Collector, n int) {
	for i := 0; i < n; i++ {
		id := int64(i + 1)
		r := request.New(id, 100+i, 50, 256, float64(i))
		t := r.ArrivalTime
		rec.Arrive(t, r)
		rec.Hold(t, r, i%3)
		rec.Release(t+0.1, r, i%3)
		rec.Place(t+0.1, r, 0, i%2, "A100")
		switch i % 5 {
		case 0: // full disaggregated path with one wire failure
			rec.admit(t+0.2, r, 0, i%2)
			rec.firstToken(t+0.4, r, 0, i%2)
			rec.XferBook(t+0.4, r, 0, i%2, 1, 0, 1<<20, t+0.45, t+0.5)
			rec.XferFail(t+0.5, r, t+0.6)
			rec.XferBook(t+0.6, r, 0, i%2, 1, 0, 1<<20, t+0.65, t+0.7)
			rec.XferDeliver(t+0.7, r, 1, 0)
			rec.finish(t+1.2, r, 1, 0)
		case 1: // monolithic with an eviction detour
			rec.admit(t+0.2, r, 0, i%2)
			rec.evict(t+0.3, r, 0, i%2)
			rec.admit(t+0.5, r, 0, i%2)
			rec.firstToken(t+0.7, r, 0, i%2)
			rec.finish(t+1.0, r, 0, i%2)
		case 2: // crash mid-flight, recover, finish
			rec.admit(t+0.2, r, 0, i%2)
			rec.Crash(t+0.3, 0, i%2, 1)
			rec.Orphan(t+0.3, r)
			rec.Recover(t+0.5, 0, i%2)
			rec.Arrive(t+0.5, r)
			rec.Place(t+0.5, r, 0, (i+1)%2, "A100")
			rec.admit(t+0.6, r, 0, (i+1)%2)
			rec.firstToken(t+0.8, r, 0, (i+1)%2)
			rec.finish(t+1.1, r, 0, (i+1)%2)
		case 3:
			rec.Shed(t+0.2, r, ShedFront)
		case 4:
			rec.admit(t+0.2, r, 0, i%2)
			rec.drop(t+0.3, r, 0, i%2)
		}
		rec.iteration(t+0.9, 0, i%2, "decode", 0.05, 4, 1<<22, i%4)
	}
	rec.PlanPoint(float64(n), 0, 2, 2)
	rec.Fail(float64(n)+0.5, request.New(int64(n+1), 10, 5, 64, float64(n)), -1, -1)
}

// TestSpanSamplingExactCounters: sampling drops span memory, never counter
// truth. A sampled collector's interval rollups must be byte-identical to
// the full collector's, its kept spans must equal the full collector's
// spans for the same IDs, and unkept IDs must hold no span at all.
func TestSpanSamplingExactCounters(t *testing.T) {
	const n, every = 200, 8
	full := NewCollector(1)
	sampled := NewCollector(1)
	sampled.SampleEvery = every
	feedSyntheticRun(full, n)
	feedSyntheticRun(sampled, n)

	dumpTS := func(c *Collector) string {
		var b strings.Builder
		if err := c.WriteTimeSeriesCSV(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if dumpTS(sampled) != dumpTS(full) {
		t.Fatal("sampling changed the interval rollups")
	}

	fullByID := map[int64]string{}
	for _, s := range full.Spans() {
		fullByID[s.R.ID] = fmt.Sprintf("%+v|%+v", s, s.Segs)
	}
	kept := 0
	for _, s := range sampled.Spans() {
		if s.R.ID%every != 0 {
			t.Fatalf("span for unsampled request %d", s.R.ID)
		}
		kept++
		if got := fmt.Sprintf("%+v|%+v", s, s.Segs); got != fullByID[s.R.ID] {
			t.Fatalf("sampled span %d differs from full run:\nsampled: %s\nfull:    %s", s.R.ID, got, fullByID[s.R.ID])
		}
	}
	if kept == 0 || kept >= len(full.Spans()) {
		t.Fatalf("sampling kept %d of %d spans", kept, len(full.Spans()))
	}
	for _, ws := range sampled.wires {
		if ws.ReqID%every != 0 {
			t.Fatalf("wire span for unsampled request %d", ws.ReqID)
		}
	}
}

// TestSamplingDefaultIdentical: the zero value keeps everything — the
// pre-sampling collector, byte for byte across every export.
func TestSamplingDefaultIdentical(t *testing.T) {
	a, b := NewCollector(1), NewCollector(1)
	b.SampleEvery = 1
	feedSyntheticRun(a, 60)
	feedSyntheticRun(b, 60)
	dump := func(c *Collector) string {
		var spans, ts, pft strings.Builder
		if err := c.WriteSpanCSV(&spans); err != nil {
			t.Fatal(err)
		}
		if err := c.WriteTimeSeriesCSV(&ts); err != nil {
			t.Fatal(err)
		}
		if err := c.WritePerfetto(&pft); err != nil {
			t.Fatal(err)
		}
		return spans.String() + ts.String() + pft.String()
	}
	if dump(a) != dump(b) {
		t.Fatal("SampleEvery 0 and 1 diverge")
	}
}
