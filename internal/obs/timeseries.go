package obs

import (
	"encoding/csv"
	"io"
	"os"
	"sort"
	"strconv"
)

// tsKey addresses one rollup row: an interval index and a scope (scopeFront
// for cluster-front counters, otherwise a pool id).
type tsKey struct {
	idx   int
	scope int
}

const scopeFront = -1

// TSRow is one interval's rollup for one scope. Front rows carry the
// admission/transfer/fault counters; pool rows carry the engine gauges and
// the planner's target-vs-actual. Peaks are within-interval maxima.
type TSRow struct {
	T     float64 // interval start, simulated seconds
	Scope int     // -1 = cluster front, else pool id

	// Front counters.
	Arrivals, Places, Holds, Releases  int
	Sheds, ShedFront, ShedBoundary     int
	XferBooks, XferFails, XferDelivers int
	HeldPeak                           int

	// Pool counters and gauges.
	Iters, FirstTokens, Finishes, Evictions int
	Drops, Fails                            int
	Crashes, Orphans, Recoveries            int
	BatchPeak, QueuePeak                    int
	KVBytesPeak                             int64
	Target, Active                          int
	hasPlan                                 bool

	// Prefix-cache token flows within the interval (0 when caching is off):
	// prompt tokens served by resident prefix blocks at admission (hit),
	// encoded by cache-enabled admissions (miss), restored from the host
	// offload store (restore), and cached tokens reclaimed from resident
	// blocks for memory (evict).
	CacheHitTokens, CacheMissTokens      int64
	CacheRestoreTokens, CacheEvictTokens int64

	// Chunked-prefill flows within the interval (0 when chunking is off).
	ChunkCount  int
	ChunkTokens int64
}

// CacheHitRate returns the interval's prompt-token hit rate
// hit/(hit+miss), or -1 when no cache-enabled admission happened.
func (r *TSRow) CacheHitRate() float64 {
	total := r.CacheHitTokens + r.CacheMissTokens
	if total == 0 {
		return -1
	}
	return float64(r.CacheHitTokens) / float64(total)
}

func (r *TSRow) peakHeld(v int) {
	if v > r.HeldPeak {
		r.HeldPeak = v
	}
}

func (r *TSRow) peakBatch(v int) {
	if v > r.BatchPeak {
		r.BatchPeak = v
	}
}

func (r *TSRow) peakQueue(v int) {
	if v > r.QueuePeak {
		r.QueuePeak = v
	}
}

func (r *TSRow) peakKV(v int64) {
	if v > r.KVBytesPeak {
		r.KVBytesPeak = v
	}
}

func (c *Collector) row(at float64, scope int) *TSRow {
	idx := int(at / c.Interval)
	if at < 0 {
		idx = 0
	}
	k := tsKey{idx, scope}
	r, ok := c.rows[k]
	if !ok {
		r = &TSRow{T: float64(idx) * c.Interval, Scope: scope}
		c.rows[k] = r
	}
	return r
}

func (c *Collector) front(at float64) *TSRow       { return c.row(at, scopeFront) }
func (c *Collector) pool(at float64, p int) *TSRow { return c.row(at, p) }

// Rows returns the rollup rows sorted by (interval, scope), front scope
// first within each interval. Planner target/active carry forward across
// empty intervals per pool so the series plots without gaps.
func (c *Collector) Rows() []*TSRow {
	out := make([]*TSRow, 0, len(c.rows))
	for _, r := range c.rows {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].T != out[j].T {
			return out[i].T < out[j].T
		}
		return out[i].Scope < out[j].Scope
	})
	// Carry the last plan point forward per pool: a planner that evaluated
	// at t=10 and next at t=20 still had that target during [10, 20).
	last := map[int]*TSRow{}
	for _, r := range out {
		if r.Scope == scopeFront {
			continue
		}
		if r.hasPlan {
			last[r.Scope] = r
		} else if p, ok := last[r.Scope]; ok {
			r.Target, r.Active = p.Target, p.Active
		}
	}
	return out
}

var tsHeader = []string{
	"t", "scope",
	"arrivals", "places", "holds", "releases", "held_peak",
	"sheds", "shed_front", "shed_boundary",
	"xfer_books", "xfer_fails", "xfer_delivers",
	"iters", "first_tokens", "finishes", "evictions", "drops", "fails",
	"crashes", "orphans", "recoveries",
	"batch_peak", "queue_peak", "kv_bytes_peak",
	"target", "active",
	"cache_hit_tokens", "cache_miss_tokens", "cache_restore_tokens", "cache_evict_tokens", "cache_hit_rate",
	"chunk_count", "chunk_tokens",
}

// WriteTimeSeriesCSV writes the interval rollup. The scope column is
// "front" for cluster-front rows and "pool<N>" for pool rows.
func (c *Collector) WriteTimeSeriesCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(tsHeader); err != nil {
		return err
	}
	for _, r := range c.Rows() {
		scope := "front"
		if r.Scope != scopeFront {
			scope = "pool" + strconv.Itoa(r.Scope)
		}
		hitRate := ""
		if hr := r.CacheHitRate(); hr >= 0 {
			hitRate = formatFloat(hr)
		}
		rec := []string{
			formatFloat(r.T), scope,
			strconv.Itoa(r.Arrivals), strconv.Itoa(r.Places), strconv.Itoa(r.Holds), strconv.Itoa(r.Releases), strconv.Itoa(r.HeldPeak),
			strconv.Itoa(r.Sheds), strconv.Itoa(r.ShedFront), strconv.Itoa(r.ShedBoundary),
			strconv.Itoa(r.XferBooks), strconv.Itoa(r.XferFails), strconv.Itoa(r.XferDelivers),
			strconv.Itoa(r.Iters), strconv.Itoa(r.FirstTokens), strconv.Itoa(r.Finishes), strconv.Itoa(r.Evictions), strconv.Itoa(r.Drops), strconv.Itoa(r.Fails),
			strconv.Itoa(r.Crashes), strconv.Itoa(r.Orphans), strconv.Itoa(r.Recoveries),
			strconv.Itoa(r.BatchPeak), strconv.Itoa(r.QueuePeak), strconv.FormatInt(r.KVBytesPeak, 10),
			strconv.Itoa(r.Target), strconv.Itoa(r.Active),
			strconv.FormatInt(r.CacheHitTokens, 10), strconv.FormatInt(r.CacheMissTokens, 10),
			strconv.FormatInt(r.CacheRestoreTokens, 10), strconv.FormatInt(r.CacheEvictTokens, 10),
			hitRate,
			strconv.Itoa(r.ChunkCount), strconv.FormatInt(r.ChunkTokens, 10),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTimeSeriesCSVFile writes the rollup to a file.
func (c *Collector) WriteTimeSeriesCSVFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.WriteTimeSeriesCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
