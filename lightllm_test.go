package lightllm

import (
	"strconv"
	"testing"
)

func TestNewServingDefaults(t *testing.T) {
	eng, err := NewServing(ServingConfig{Model: "Llama2-7B-Chat", GPU: "A100-80G"})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRNG(1)
	eng.SubmitAll(BuildWorkload(ShareGPT, r, 25, 1, 512))
	res := eng.Run()
	if len(res.Finished) != 25 {
		t.Fatalf("finished %d of 25", len(res.Finished))
	}
	if res.Scheduler != "past-future(reserved=3%)" {
		t.Fatalf("default scheduler = %q", res.Scheduler)
	}
}

func TestNewServingErrors(t *testing.T) {
	if _, err := NewServing(ServingConfig{Model: "nope", GPU: "A100-80G"}); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := NewServing(ServingConfig{Model: "Llama2-7B-Chat", GPU: "nope"}); err == nil {
		t.Fatal("unknown GPU accepted")
	}
	if _, err := NewServing(ServingConfig{Model: "Llama2-70B-Chat", GPU: "A30"}); err == nil {
		t.Fatal("70B on A30 accepted")
	}
	if _, err := NewServing(ServingConfig{Model: "Llama2-7B-Chat", GPU: "A100-80G", Scheduler: "wat"}); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
}

func TestNewServingStrategies(t *testing.T) {
	const pf = "past-future(reserved=3%)"
	for _, tc := range []struct {
		strategy, scheduler string
		chunked             bool
	}{
		{"", pf, false},
		{"prefill-priority", pf, false},
		{"splitfuse", pf, true},
		{"static", "static-batch", false},
	} {
		t.Run(strconv.Quote(tc.strategy), func(t *testing.T) {
			eng, err := NewServing(ServingConfig{Model: "Llama2-7B-Chat", GPU: "A100-80G", Strategy: tc.strategy})
			if err != nil {
				t.Fatal(err)
			}
			if eng.ChunkedPrefillEnabled() != tc.chunked {
				t.Fatalf("chunked prefill = %v, want %v", eng.ChunkedPrefillEnabled(), tc.chunked)
			}
			eng.SubmitAll(BuildWorkload(ShareGPT, NewRNG(1), 10, 1, 512))
			res := eng.Run()
			if len(res.Finished) != 10 || res.Scheduler != tc.scheduler || (res.ChunkIters > 0) != tc.chunked {
				t.Fatalf("finished %d of 10, scheduler %q, %d chunked iterations",
					len(res.Finished), res.Scheduler, res.ChunkIters)
			}
		})
	}
	if _, err := NewServing(ServingConfig{Model: "Llama2-7B-Chat", GPU: "A100-80G", Strategy: "mixed"}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestNewSchedulerFamilies(t *testing.T) {
	cases := []struct{ name, want string }{
		{"past-future", "past-future(reserved=3%)"},
		{"pf", "past-future(reserved=3%)"},
		{"aggressive", "aggressive(watermark=97%)"},
		{"vllm", "aggressive(watermark=97%)"},
		{"conservative", "conservative"},
		{"oracle", "oracle"},
		{"", "past-future(reserved=3%)"},
	}
	for _, c := range cases {
		s, err := NewScheduler(c.name, 0, 1)
		if err != nil {
			t.Fatalf("%q: %v", c.name, err)
		}
		if s.Name() != c.want {
			t.Fatalf("%q -> %q, want %q", c.name, s.Name(), c.want)
		}
	}
}

func TestClosedLoopFacade(t *testing.T) {
	eng, err := NewServing(ServingConfig{
		Model: "Llama2-7B-Chat", GPU: "A100-80G", Scheduler: "past-future", QueueTimeout: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	NewClosedLoop(eng, ShareGPT, NewRNG(2), 10, 1024, 0, 30)
	res := eng.RunUntil(30)
	sum := Summarize(res.Finished, SLASmall, 5, 30)
	if sum.Total == 0 {
		t.Fatal("no requests finished in window")
	}
	if sum.Goodput <= 0 {
		t.Fatal("no goodput")
	}
}

func TestExperimentRunnersSmoke(t *testing.T) {
	if r := RunFigure5(BenchOptions{}); r.PeakAtT != 19 {
		t.Fatal("figure 5 runner broken")
	}
	if r := RunFigure6(BenchOptions{}); r.AdmitStep["looking-to-future"] != 1 {
		t.Fatal("figure 6 runner broken")
	}
}
