package main

import (
	"context"
	"fmt"
	"time"

	"streach"
	"streach/internal/experiments"
	"streach/internal/serve"
)

// faultProbes are fixed reach queries (independent of --seed) whose
// bounded answer misses segments exhaustive search reports, all of them
// outside MaxBoundingRegion (see README "Findings"). They join every
// explore round and count as failed operations until a change to the
// bounding phase mends them. Start segments are given by
// ID and queried at their midpoint.
var faultProbes = []struct {
	Seg   int
	Start time.Duration
}{
	{Seg: 1405, Start: 15*time.Hour + 47*time.Minute},
	{Seg: 1426, Start: 16*time.Hour + 9*time.Minute},
}

func probeQueries(g *genWorld) []Query {
	out := make([]Query, len(faultProbes))
	for i, p := range faultProbes {
		out[i] = Query{
			Kind:  streach.KindReach,
			Locs:  []streach.Location{g.location(p.Seg)},
			Start: p.Start, Dur: 10 * time.Minute, Prob: 0.1,
		}
	}
	return out
}

// exploreRound is how many list queries each round holds before the
// fault probes; a round is exploreRound + len(faultProbes) operations.
const exploreRound = 48

// checked is a query with its oracle answer, bounding regions and the
// first answer the system gave.
type checked struct {
	q     Query
	want  *Answer
	b     *Bounds
	segs  []int32
	probs []float32
	// probe marks a named-fault probe.
	probe bool
}

// verdict checks an answer against c and records what it shows. It
// returns false when the answer counts as a failed operation: a probe
// hit by the named slot-rounding fault. Any other missing segment, and
// every other failed check, makes the answer incorrect; the oracle alone
// (Answer.Within), not the system's own Bmax, decides whether a segment
// outside Bmax is the named fault.
func (r *Run) verdict(p *Phase, c *checked, segs []int32, probs []float32, prob float64) bool {
	v := Check(segs, probs, prob, c.want, c.b)
	r.unverifiedBelow.Add(int64(v.UnverifiedBelowProb))
	if !v.Sound() {
		r.incorrect(p, "%s prob=%v: %v", c.q.Shape(), prob, v)
	}
	if v.MissingSlotOnly > 0 {
		if c.probe {
			return false
		}
		r.faultMisses.Add(1)
		r.faultSegs.Add(int64(v.MissingSlotOnly))
	}
	return true
}

// prepare computes the oracle answers and bounding regions of cs.
func prepare(ctx context.Context, sys *streach.System, o *Oracle, cs []*checked) error {
	for _, c := range cs {
		b, err := PlanBounds(ctx, sys.Engine(), c.q)
		if err != nil {
			return fmt.Errorf("bounds of %s: %w", c.q.Shape(), err)
		}
		c.want, c.b = o.Query(c.q), b
	}
	return nil
}

// exploreState is what the explore phases share.
type exploreState struct {
	sys    *streach.System
	list   []*checked
	probes []*checked
}

func (s *exploreState) roundLen() int { return exploreRound + len(s.probes) }

// opAt maps global operation i of a round-structured phase to its query.
func (s *exploreState) opAt(i int64) *checked {
	per := int64(s.roundLen())
	round, pos := i/per, i%per
	if pos >= exploreRound {
		return s.probes[pos-exploreRound]
	}
	return s.list[(round*exploreRound+pos)%int64(len(s.list))]
}

func runExplore(r *Run) error {
	ctx := context.Background()
	var world *experiments.World
	sys, setup, err := timedSetups(func() (*streach.System, error) {
		w, s, err := buildSystem()
		world = w
		return s, err
	}, func(s *streach.System) { s.Close() }, nil)
	if err != nil {
		return err
	}
	defer sys.Close()
	r.E2E["setup_s"] = Metric{setup, "s"}

	o := NewOracle(world.Net, world.DS)
	g := newGenWorld(world.Net, o)
	in := genExplore(g, r.Seed)
	st := &exploreState{sys: sys, list: make([]*checked, len(in.Queries))}
	for i, q := range in.Queries {
		st.list[i] = &checked{q: q}
	}
	for _, q := range probeQueries(g) {
		st.probes = append(st.probes, &checked{q: q, probe: true})
	}

	// First pass: every list query once, in whole rounds with the
	// probes, on fresh caches, one client per core. The answers are
	// checked once the pass is over, so the checks' own bounding work
	// cannot warm the pass.
	first := r.phase("first-pass")
	answers := make([]*streach.Region, len(st.list)/exploreRound*st.roundLen())
	c0 := snapCounters(sys)
	settle()
	t0 := time.Now()
	parallelFor(r.Clients, len(answers), func(_, i int) {
		first.Attempted.Add(1)
		reg, err := sys.Do(ctx, st.opAt(int64(i)).q.Request())
		if err != nil {
			first.Failed.Add(1)
			r.logf("first-pass error: %v", err)
			return
		}
		answers[i] = reg
	})
	r.E2E["first_pass_s"] = Metric{time.Since(t0).Seconds(), "s"}
	firstC := snapCounters(sys).delta(c0)
	if err := prepare(ctx, sys, o, st.list); err != nil {
		return err
	}
	if err := prepare(ctx, sys, o, st.probes); err != nil {
		return err
	}
	for i, reg := range answers {
		if reg == nil {
			continue
		}
		c := st.opAt(int64(i))
		if !c.probe {
			c.segs, c.probs = reg.SegmentIDs, reg.Probabilities
		}
		if !r.verdict(first, c, reg.SegmentIDs, reg.Probabilities, c.q.Prob) {
			first.Failed.Add(1)
		}
	}
	r.checkThresholds(ctx, st)
	c1, n1 := snapCounters(sys), r.attempted()
	if err := r.measureLibrary(ctx, st); err != nil {
		return err
	}
	if !r.Trace {
		return nil
	}
	r.counterLayers(firstC, snapCounters(sys).delta(c1), r.attempted()-n1)
	ops := make([]ladderOp, ladderRounds*st.roundLen())
	for i := range ops {
		c := st.opAt(int64(i))
		ops[i] = ladderOp{c: c, prob: c.q.Prob}
	}
	// The serve layer is timed here, on the ladder only: the measured
	// phases stay off serve, whose post-answer prefetch would make the
	// rows a query finds warm depend on timing.
	srv := serve.New(sys, serve.Config{})
	defer srv.Close()
	if err := r.ladder(ctx, sys, o, ladderTargets{handler: srv.Handler()}, ops); err != nil {
		return err
	}
	r.layerLine("serve.coalesced", serveCounter(srv, "coalesced_total"), "count")
	r.layerLine("serve.prefetch_warms", serveCounter(srv, "prefetch_warms_total"), "count")
	return r.precomputeLayer(ctx, sys)
}

// checkThresholds asks the first exploreRound/len(thresholds) list
// queries at every threshold, plus the probes: one round. Each answer is
// checked against the oracle, and each query's answers must shrink as
// Prob rises.
func (r *Run) checkThresholds(ctx context.Context, st *exploreState) {
	p := r.phase("thresholds")
	for _, c := range st.list[:exploreRound/len(thresholds)] {
		var prev []int32
		for _, prob := range thresholds {
			p.Attempted.Add(1)
			reg, err := st.sys.Do(ctx, c.q.Request(), streach.WithProb(prob))
			if err != nil {
				p.Failed.Add(1)
				continue
			}
			r.verdict(p, c, reg.SegmentIDs, reg.Probabilities, prob)
			if prev != nil && !Nested(prev, reg.SegmentIDs) {
				r.incorrect(p, "%s: answer at %v is not inside the answer at a lower threshold", c.q.Shape(), prob)
			}
			prev = reg.SegmentIDs
		}
	}
	for _, c := range st.probes {
		p.Attempted.Add(1)
		reg, err := st.sys.Do(ctx, c.q.Request())
		if err != nil || !r.verdict(p, c, reg.SegmentIDs, reg.Probabilities, c.q.Prob) {
			p.Failed.Add(1)
		}
	}
}

// measureLibrary runs the measured closed-loop phase of a library
// workload: whole rounds of list queries and probes for r.Seconds and at
// least minLatencySamples operations, one client per core. Every answer
// is compared with the first answer of its query (and re-checked against
// the oracle when it differs).
func (r *Run) measureLibrary(ctx context.Context, st *exploreState) error {
	p := r.phase("measured")
	lat := newLatencies(r.Clients)
	done := newLatencies(r.Clients)
	settle()
	t0 := time.Now()
	roundLoop(r.Clients, st.roundLen(), t0.Add(time.Duration(r.Seconds*float64(time.Second))), minLatencySamples, func(client int, i int64) {
		c := st.opAt(i)
		p.Attempted.Add(1)
		began := time.Now()
		reg, err := st.sys.Do(ctx, c.q.Request())
		lat.add(client, time.Since(began))
		done.add(client, time.Since(t0))
		if err != nil {
			p.Failed.Add(1)
			return
		}
		if c.probe || !sameAnswer(reg.SegmentIDs, reg.Probabilities, c.segs, c.probs) {
			if !r.verdict(p, c, reg.SegmentIDs, reg.Probabilities, c.q.Prob) {
				p.Failed.Add(1)
			}
		}
	})
	r.E2E["query_qps"] = Metric{windowRate(done.all(), r.Seconds*1000), "1/s"}
	return r.latencyMetrics(lat)
}
