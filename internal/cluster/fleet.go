package cluster

import (
	"github.com/lightllm-go/lightllm/internal/engine"
	"github.com/lightllm-go/lightllm/internal/request"
)

// Fleet is the monolithic serving fleet: the degenerate one-pool RoleMixed
// Cluster, kept as the PR 2 API. All routing, probing, and autoscaling
// mechanics live on the embedded Pool; the event clock lives on the
// Cluster. A Config with Role left at the RoleMixed zero value builds the
// exact pre-disaggregation fleet, decision for decision.
type Fleet struct {
	*Pool
	clu *Cluster
}

// New validates the configuration and builds a fleet. Cluster-wide
// concerns — admission control, fault injection, the observability
// recorder — are set on a ClusterConfig: build a one-pool Cluster for them.
func New(cfg Config) (*Fleet, error) {
	clu, err := NewCluster(ClusterConfig{Pools: []Config{cfg}})
	if err != nil {
		return nil, err
	}
	return &Fleet{Pool: clu.Pool(0), clu: clu}, nil
}

// MustNew is New for statically valid configurations.
func MustNew(cfg Config) *Fleet {
	f, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return f
}

// Serve routes the requests (sorted by arrival time internally), advancing
// replica engines in global timestamp order through the event heap so each
// routing decision observes every replica's state as of the request's
// arrival, then drains the fleet until deadline. It returns each replica's
// result. One-shot: a fleet serves one stream.
func (f *Fleet) Serve(reqs []*request.Request, deadline float64) []*engine.Result {
	return f.clu.Serve(reqs, deadline)
}

// ServeStream is Serve over a pull-based arrival source: next returns
// requests in nondecreasing ArrivalTime order and nil at end of stream, so
// a multi-million-request replay never materializes its slice. See
// Cluster.ServeStream.
func (f *Fleet) ServeStream(next func() *request.Request, deadline float64) []*engine.Result {
	return f.clu.ServeStream(next, deadline)
}

// EventsProcessed returns how many simulation events the fleet handled —
// the scale benchmark's events/sec numerator.
func (f *Fleet) EventsProcessed() int64 { return f.clu.EventsProcessed() }

// Duration returns the simulated span of the served stream (after Serve).
func (f *Fleet) Duration() float64 { return f.clu.Duration() }

// ShedRequests returns every request refused by admission control: always
// nil, since a Fleet has none. It keeps Fleet reports shaped like a
// Cluster's.
func (f *Fleet) ShedRequests() []*request.Request { return f.clu.ShedRequests() }
