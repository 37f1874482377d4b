package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"streach"
	"streach/internal/conindex"
	"streach/internal/core"
	"streach/internal/geo"
	"streach/internal/serve"
	"streach/internal/shard"
	"streach/internal/stindex"
	"streach/internal/storage"
)

// Span is one timed call made by the benchmark's own code. Spans of one
// request share Req; Parent is the enclosing span's index (-1 for a
// request's root).
type Span struct {
	Name    string `json:"name"`
	Req     int64  `json:"req"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s Span) ms() float64 { return float64(s.EndNs-s.StartNs) / 1e6 }

// Tracer keeps spans in memory; they are written out when the run ends.
// It is used by one goroutine at a time.
type Tracer struct {
	origin time.Time
	spans  []Span
	// bookkeeping is the time spent inside begin and end themselves: the
	// cost tracing adds to a traced request.
	bookkeeping time.Duration
}

func newTracer() *Tracer { return &Tracer{origin: time.Now()} }

func (t *Tracer) begin(name string, req int64, parent int) int {
	t0 := time.Now()
	id := len(t.spans)
	t.spans = append(t.spans, Span{Name: name, Req: req, Parent: parent})
	now := time.Now()
	t.spans[id].StartNs = int64(now.Sub(t.origin))
	t.bookkeeping += now.Sub(t0)
	return id
}

func (t *Tracer) end(id int) {
	t0 := time.Now()
	t.spans[id].EndNs = int64(t0.Sub(t.origin))
	t.bookkeeping += time.Since(t0)
}

// do runs fn inside a span.
func (t *Tracer) do(name string, req int64, parent int, fn func() error) (Span, error) {
	id := t.begin(name, req, parent)
	err := fn()
	t.end(id)
	return t.spans[id], err
}

// write stores the spans as JSON lines under .bench_build/traces.
func (t *Tracer) write(workload string, seed int64) (string, error) {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	return path, f.Close()
}

// counters is a snapshot of the shared counters the layers keep.
type counters struct {
	share streach.SharingStats
	tl    stindex.CacheStats
	io    storage.IOStats
	con   conindex.Stats
}

func snapCounters(sys *streach.System) counters {
	eng := sys.Engine()
	return counters{
		share: sys.SharingStats(),
		tl:    eng.STIndex().CacheStats(),
		io:    eng.STIndex().Pool().Stats(),
		con:   eng.ConIndex().Stats(),
	}
}

// delta is after − before.
func (a counters) delta(b counters) counters {
	return counters{
		share: streach.SharingStats{
			PlanCacheHits:   a.share.PlanCacheHits - b.share.PlanCacheHits,
			PlanCacheMisses: a.share.PlanCacheMisses - b.share.PlanCacheMisses,
		},
		tl:  a.tl.Sub(b.tl),
		io:  a.io.Sub(b.io),
		con: a.con.Sub(b.con),
	}
}

// ladderOp is one request of the layer ladder.
type ladderOp struct {
	c    *checked
	prob float64
}

// ladderTargets are the optional layers a workload's ladder also times.
type ladderTargets struct {
	// handler, when set, is timed on an in-memory recorder after Do.
	handler http.Handler
	// cluster, when set, is a sharded view whose Plan.ResultAt is timed.
	cluster *shard.Cluster
}

// ladder runs ops serially, timing each layer's public calls for the
// same request:
//
//	streach.do      System.Do, in the workload's own cache state
//	core.bound      Engine.Plan* with DeferVerification
//	stindex.fetch   TimeListsRange over the candidates and SlotWindow
//	core.verify     SharedPlan.VerifyPositions over every candidate
//	core.result     FinishVerification + ResultAt
//	shard.result    shard Plan.ResultAt (sharded workloads)
//	serve.handler   Handler().ServeHTTP on a recorder (explore; reach
//	                and reverse, the kinds GET /v1/reach takes)
//	streach.do_hit  System.Do again: the plan-cache-hit path serve wraps
//
// The decomposed calls run right after Do on the same query, so they
// meet caches Do has just warmed: they are lower bounds of the costs
// inside Do, and core.remainder_ms (Do minus the core phases) also holds
// the cold-cache cost they did not pay.
func (r *Run) ladder(ctx context.Context, sys *streach.System, o *Oracle, tg ladderTargets, ops []ladderOp) error {
	p := r.phase("ladder")
	t := newTracer()
	eng := sys.Engine()
	var remainder, layers, cands, bmax, bmin []float64
	hits := 0
	for i, op := range ops {
		req := int64(i)
		q := op.c.q
		p.Attempted.Add(1)
		root := t.begin("request", req, -1)
		before := sys.SharingStats().PlanCacheHits
		var reg *streach.Region
		doSpan, err := t.do("streach.do", req, root, func() (err error) {
			reg, err = sys.Do(ctx, q.Request(), streach.WithProb(op.prob))
			return err
		})
		if err != nil {
			return fmt.Errorf("ladder do: %w", err)
		}
		hit := sys.SharingStats().PlanCacheHits > before
		if hit {
			hits++
		}
		var plan *core.SharedPlan
		bound, err := t.do("core.bound", req, root, func() (err error) {
			plan, err = planDeferred(ctx, eng, q)
			return err
		})
		if err != nil {
			return fmt.Errorf("ladder bound: %w", err)
		}
		lo, hi := plan.SlotWindow()
		cs := plan.Candidates()
		var buf []*stindex.TimeListBits
		if _, err := t.do("stindex.fetch", req, root, func() error {
			for _, s := range cs {
				var err error
				if buf, err = eng.STIndex().TimeListsRange(s, lo, hi, buf[:0]); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		pos := make([]int, len(cs))
		for j := range pos {
			pos[j] = j
		}
		verify, err := t.do("core.verify", req, root, func() error {
			vals, err := plan.VerifyPositions(ctx, eng, pos)
			if err == nil {
				plan.CommitVerified(pos, vals)
			}
			return err
		})
		if err != nil {
			return fmt.Errorf("ladder verify: %w", err)
		}
		var res *core.Result
		result, err := t.do("core.result", req, root, func() (err error) {
			plan.FinishVerification(time.Duration(verify.EndNs - verify.StartNs))
			res, err = plan.ResultAt(ctx, op.prob)
			return err
		})
		plan.Close()
		if err != nil {
			return fmt.Errorf("ladder result: %w", err)
		}
		if tg.cluster != nil {
			if err := ladderShard(ctx, t, tg.cluster, req, root, op); err != nil {
				return err
			}
		}
		if tg.handler != nil && q.Kind != streach.KindMulti {
			if _, err := t.do("serve.handler", req, root, func() error {
				rec := httptest.NewRecorder()
				tg.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, reachURL("http://bench", q, op.prob), nil))
				if rec.Code != http.StatusOK {
					return fmt.Errorf("status %d", rec.Code)
				}
				return nil
			}); err != nil {
				return fmt.Errorf("ladder handler: %w", err)
			}
			if _, err := t.do("streach.do_hit", req, root, func() error {
				_, err := sys.Do(ctx, q.Request(), streach.WithProb(op.prob))
				return err
			}); err != nil {
				return err
			}
		}
		t.end(root)

		// Checks, outside the request's spans.
		if !sameRegion(res, reg) {
			r.incorrect(p, "%s: decomposed answer differs from Do", q.Shape())
		}
		// The decomposed plan gives this request's bounding regions:
		// unverified members are Bmax ∩ Bmin, candidates the rest of Bmax.
		b := &Bounds{Keep: map[int32]bool{}, Max: map[int32]bool{}}
		for _, s := range res.Segments {
			if _, ok := res.Probability[s]; !ok {
				b.Keep[int32(s)] = true
				b.Max[int32(s)] = true
			}
		}
		for _, s := range cs {
			b.Max[int32(s)] = true
		}
		c := &checked{q: q, want: o.Query(q), b: b, probe: op.c.probe}
		if !r.verdict(p, c, reg.SegmentIDs, reg.Probabilities, op.prob) {
			p.Failed.Add(1)
		}
		cands = append(cands, float64(len(cs)))
		bmax = append(bmax, float64(res.Metrics.MaxRegion))
		bmin = append(bmin, float64(res.Metrics.MinRegion))
		sum := result.ms()
		if !hit {
			sum += bound.ms() + verify.ms()
		}
		layers = append(layers, sum)
		remainder = append(remainder, doSpan.ms()-sum)
	}
	med := func(name string) float64 { return median(spanMs(t.spans, name)) }
	L := r.Layers
	L["streach.do_ms"] = Metric{med("streach.do"), "ms"}
	L["core.bound_ms"] = Metric{med("core.bound"), "ms"}
	L["core.verify_ms"] = Metric{med("core.verify"), "ms"}
	L["core.result_ms"] = Metric{med("core.result"), "ms"}
	L["stindex.fetch_ms"] = Metric{med("stindex.fetch"), "ms"}
	L["core.candidates"] = Metric{median(cands), "count"}
	L["core.bmax_segments"] = Metric{median(bmax), "count"}
	L["core.bmin_segments"] = Metric{median(bmin), "count"}
	L["core.remainder_ms"] = Metric{median(remainder), "ms"}
	L["trace.layers_ms"] = Metric{median(layers), "ms"}
	L["trace.overhead_ms"] = Metric{float64(t.bookkeeping) / float64(time.Millisecond) / float64(len(ops)), "ms"}
	if tg.handler != nil {
		var over []float64
		byReq := spansByReq(t.spans)
		for _, ss := range byReq {
			if h, ok := ss["serve.handler"]; ok {
				over = append(over, h.ms()-ss["streach.do_hit"].ms())
			}
		}
		r.layerLine("serve.handler_ms", med("serve.handler"), "ms")
		r.layerLine("serve.overhead_ms", median(over), "ms")
	}
	if tg.cluster != nil {
		r.layerLine("shard.result_ms", med("shard.result"), "ms")
	}
	r.logf("ladder requests=%d plan_cache_hits=%d", len(ops), hits)
	r.selfTimes(t.spans)
	path, err := t.write(r.Workload, r.Seed)
	if err != nil {
		return err
	}
	r.logf("spans written to %s (%d spans)", path, len(t.spans))
	return nil
}

// reachURL is the GET /v1/reach form of q at prob (reach or reverse).
func reachURL(base string, q Query, prob float64) string {
	v := url.Values{}
	v.Set("lat", strconv.FormatFloat(q.Locs[0].Lat, 'g', -1, 64))
	v.Set("lng", strconv.FormatFloat(q.Locs[0].Lng, 'g', -1, 64))
	v.Set("start", q.Start.String())
	v.Set("dur", q.Dur.String())
	v.Set("prob", strconv.FormatFloat(prob, 'g', -1, 64))
	if q.Kind == streach.KindReverse {
		v.Set("reverse", "1")
	}
	return base + "/v1/reach?" + v.Encode()
}

// serveCounter reads one counter from the server's /metrics JSON.
func serveCounter(srv *serve.Server, name string) float64 {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "http://bench/metrics", nil))
	var m map[string]float64
	json.Unmarshal(rec.Body.Bytes(), &m)
	return m[name]
}

// ladderShard times a sharded plan (bounding on the cluster planner plus
// scatter verification) and its ResultAt (per-shard PartialAt +
// MergeRegions) for op.
func ladderShard(ctx context.Context, t *Tracer, cl *shard.Cluster, req int64, root int, op ladderOp) error {
	q := op.c.q
	pts := make([]geo.Point, len(q.Locs))
	for i, l := range q.Locs {
		pts[i] = geo.Point{Lat: l.Lat, Lng: l.Lng}
	}
	var pl *shard.Plan
	cq := core.Query{Location: pts[0], Start: q.Start, Duration: q.Dur, Prob: op.prob}
	_, err := t.do("shard.plan", req, root, func() (err error) {
		switch q.Kind {
		case streach.KindReverse:
			pl, err = cl.PlanReverse(ctx, cq)
		case streach.KindMulti:
			pl, err = cl.PlanMulti(ctx, core.MultiQuery{Locations: pts, Start: q.Start, Duration: q.Dur, Prob: op.prob})
		default:
			pl, err = cl.PlanReach(ctx, cq)
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("ladder shard plan: %w", err)
	}
	defer pl.Close()
	_, err = t.do("shard.result", req, root, func() error {
		_, err := pl.ResultAt(ctx, op.prob)
		return err
	})
	return err
}

// sameRegion reports whether a core result and a facade answer hold the
// same segments and probabilities.
func sameRegion(res *core.Result, reg *streach.Region) bool {
	if len(res.Segments) != len(reg.SegmentIDs) {
		return false
	}
	for i, s := range res.Segments {
		p, ok := res.Probability[s]
		if !ok {
			p = -1
		}
		if int32(s) != reg.SegmentIDs[i] || float32(p) != reg.Probabilities[i] {
			return false
		}
	}
	return true
}

func spanMs(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

func spansByReq(spans []Span) map[int64]map[string]Span {
	out := map[int64]map[string]Span{}
	for _, s := range spans {
		if out[s.Req] == nil {
			out[s.Req] = map[string]Span{}
		}
		out[s.Req][s.Name] = s
	}
	return out
}

// selfTimes prints, per span name, the total and median self time: the
// span's duration minus its children's.
func (r *Run) selfTimes(spans []Span) {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	self := map[string][]float64{}
	for i, s := range spans {
		self[s.Name] = append(self[s.Name], float64(s.EndNs-s.StartNs-child[i])/1e6)
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		total := 0.0
		for _, v := range self[n] {
			total += v
		}
		fmt.Fprintf(r.out, "self   %-16s n=%-5d total_ms=%-10.1f median_ms=%.3f\n", n, len(self[n]), total, median(self[n]))
	}
}

// layerLine prints a layer metric that only some workloads have; it goes
// to the report, not to the result line.
func (r *Run) layerLine(name string, v float64, unit string) {
	fmt.Fprintf(r.out, "layer  %-34s %14.6f %s\n", name, v, unit)
}

// ladderRounds is how many whole rounds of a workload's operations the
// ladder runs.
const ladderRounds = 2

// counterLayers sets the counter-based layer metrics: Con-Index row
// counts over the first pass (a fixed list of queries), and the plan
// cache, time-list cache and buffer pool counts over the measured phases
// per operation those phases attempted (ops), so that a faster program,
// which fits more operations into the timed phases, does not show more
// misses.
func (r *Run) counterLayers(first, measured counters, ops int64) {
	L := r.Layers
	ratio := func(a, b int64) float64 {
		if a+b == 0 {
			return 0
		}
		return float64(a) / float64(a+b)
	}
	perOp := func(n int64) Metric { return Metric{float64(n) / float64(max(ops, 1)), "1/op"} }
	sh := measured.share
	L["plancache.hits"] = perOp(sh.PlanCacheHits)
	L["plancache.misses"] = perOp(sh.PlanCacheMisses)
	L["plancache.hit_ratio"] = Metric{ratio(sh.PlanCacheHits, sh.PlanCacheMisses), "ratio"}
	L["conindex.rows_materialised"] = Metric{float64(first.con.Materialised), "count"}
	L["conindex.row_hits"] = Metric{float64(first.con.Hits), "count"}
	L["stindex.tl_cache_hits"] = perOp(measured.tl.Hits)
	L["stindex.tl_cache_misses"] = perOp(measured.tl.Misses)
	L["stindex.tl_cache_hit_ratio"] = Metric{ratio(measured.tl.Hits, measured.tl.Misses), "ratio"}
	L["storage.page_reads"] = perOp(measured.io.Reads)
	L["storage.page_hits"] = perOp(measured.io.Hits)
	L["storage.pool_hit_ratio"] = Metric{ratio(measured.io.Hits, measured.io.Reads), "ratio"}
	L["core.unverified_below_prob"] = Metric{float64(r.unverifiedBelow.Load()), "count"}
	L["core.missing_slot_only"] = Metric{float64(r.faultMisses.Load()), "count"}
}

// precomputeLayer times PrecomputeSlotsCtx over one slot no workload
// touches (03:00), so every row is materialised cold.
func (r *Run) precomputeLayer(ctx context.Context, sys *streach.System) error {
	slot := 3 * 3600 / slotSeconds
	t0 := time.Now()
	if err := sys.Engine().ConIndex().PrecomputeSlotsCtx(ctx, slot, slot, 0); err != nil {
		return err
	}
	r.Layers["conindex.precompute_ms"] = Metric{ms(time.Since(t0)), "ms"}
	return nil
}
