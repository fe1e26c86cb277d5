package main

// The traced run's instruments. All of them live in this package and reach
// the simulator only through its public seams: spans around the calls the
// benchmark makes, a core.Scheduler decorator that only delegates, and
// counters on the exported routing and engine hooks. Every method is safe
// on a nil *tracer, which is how the untraced replay runs: the workloads
// call the same code and the instruments vanish.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"github.com/lightllm-go/lightllm/internal/core"
	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/request"
)

// spanStat aggregates every span of one name under one parent span: how
// many, their total duration, and their self time (duration minus the time
// covered by child spans).
type spanStat struct {
	name          string
	parent        string
	count         int64
	total, childs time.Duration
}

func (s *spanStat) self() time.Duration { return s.total - s.childs }

type openSpan struct {
	stat  *spanStat
	start time.Time
	child time.Duration
}

type tracer struct {
	spans map[string]*spanStat // by "parent/name"
	order []string
	stack []openSpan

	// OnRoute counters: decisions and per-replica placements.
	routeCalls int64
	routed     []int64

	// Engine hook counters.
	steps, batchSum     int64
	evictions           int64
	admitBatches        []int64   // per engine, in hookEngine order
	firstAdmitWait      []float64 // simulated seconds from arrival to first admission
	admitCalls, yielded int64

	// profile is where the replay's CPU profile goes ("" for none).
	profile string
}

func newTracer() *tracer { return &tracer{spans: map[string]*spanStat{}} }

// begin opens a span; the caller must end it before its parent ends.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := ""
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].stat.name
	}
	key := parent + "/" + name
	st := t.spans[key]
	if st == nil {
		st = &spanStat{name: name, parent: parent}
		t.spans[key] = st
		t.order = append(t.order, key)
	}
	t.stack = append(t.stack, openSpan{stat: st, start: time.Now()})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.stack) - 1
	top := t.stack[n]
	t.stack = t.stack[:n]
	d := time.Since(top.start)
	top.stat.count++
	top.stat.total += d
	top.stat.childs += top.child
	if n > 0 {
		t.stack[n-1].child += d
	}
}

// span runs f inside a span named name (f alone on a nil tracer).
func (t *tracer) span(name string, f func()) {
	if t == nil {
		f()
		return
	}
	t.begin(name)
	f()
	t.end()
}

// stat sums the spans of one name over all their parents.
func (t *tracer) stat(name string) spanStat {
	sum := spanStat{name: name}
	for _, key := range t.order {
		if s := t.spans[key]; s.name == name {
			sum.count += s.count
			sum.total += s.total
			sum.childs += s.childs
		}
	}
	return sum
}

// tracedScheduler decorates a scheduler with a span and counters around
// Admit. It only delegates, so decisions are those of the inner scheduler.
type tracedScheduler struct {
	inner core.Scheduler
	tr    *tracer
}

func (s *tracedScheduler) Name() string { return s.inner.Name() }

func (s *tracedScheduler) Admit(v *core.View, queue []*request.Request) int {
	s.tr.begin("core.admit")
	n := s.inner.Admit(v, queue)
	s.tr.end()
	s.tr.admitCalls++
	if n > 0 {
		s.tr.yielded++
	}
	return n
}

func (t *tracer) wrapScheduler(s core.Scheduler) core.Scheduler {
	if t == nil {
		return s
	}
	return &tracedScheduler{inner: s, tr: t}
}

// hookEngine attaches the iteration, eviction and admission counters.
func (t *tracer) hookEngine(e *engine.Engine) {
	if t == nil {
		return
	}
	idx := len(t.admitBatches)
	t.admitBatches = append(t.admitBatches, 0)
	e.AddIterationHook(func(_ float64, it engine.Iteration) {
		t.steps++
		t.batchSum += int64(it.BatchSize)
	})
	e.AddEvictHook(func(float64, *request.Request) { t.evictions++ })
	e.AddAdmitHook(func(now float64, admitted []*request.Request) {
		t.admitBatches[idx]++
		for _, r := range admitted {
			if r.Admissions == 1 {
				t.firstAdmitWait = append(t.firstAdmitWait, now-r.ArrivalTime)
			}
		}
	})
}

// onRoute returns the OnRoute hook for a pool of n replicas (nil untraced).
func (t *tracer) onRoute(n int) func(*request.Request, int) {
	if t == nil {
		return nil
	}
	t.routed = make([]int64, n)
	return func(_ *request.Request, rep int) {
		t.routeCalls++
		t.routed[rep]++
	}
}

// routeImbalance is the coefficient of variation of placements across the
// pool's replicas (0 when nothing was routed).
func (t *tracer) routeImbalance() float64 {
	if len(t.routed) == 0 || t.routeCalls == 0 {
		return 0
	}
	mean := float64(t.routeCalls) / float64(len(t.routed))
	ss := 0.0
	for _, c := range t.routed {
		d := float64(c) - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(t.routed))) / mean
}

// writeSpans prints the span table: count, total and self time per name.
func (t *tracer) writeSpans(w io.Writer) {
	keys := append([]string(nil), t.order...)
	sort.SliceStable(keys, func(i, j int) bool { return t.spans[keys[i]].total > t.spans[keys[j]].total })
	fmt.Fprintf(w, "%-16s %-16s %12s %12s %12s\n", "span", "parent", "count", "total_s", "self_s")
	for _, k := range keys {
		s := t.spans[k]
		fmt.Fprintf(w, "%-16s %-16s %12d %12.4f %12.4f\n", s.name, s.parent, s.count, s.total.Seconds(), s.self().Seconds())
	}
}
