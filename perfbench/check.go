package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"streach"
	"streach/internal/core"
	"streach/internal/geo"
)

// Query is one generated reachability query.
type Query struct {
	Kind  streach.Kind       `json:"kind"`
	Locs  []streach.Location `json:"locs"`
	Start time.Duration      `json:"start"`
	Dur   time.Duration      `json:"dur"`
	Prob  float64            `json:"prob"`
}

// Request converts q to the library request.
func (q Query) Request() streach.Request {
	return streach.Request{Kind: q.Kind, Locations: q.Locs, Start: q.Start, Duration: q.Dur, Prob: q.Prob}
}

// Shape is q without its threshold: the key the plan cache and the
// serve coalescer group by.
func (q Query) Shape() string {
	return fmt.Sprintf("%d|%v|%d|%d", q.Kind, q.Locs, q.Start, q.Dur)
}

// Bounds are a query's bounding regions, read from a deferred plan:
// Keep is Bmax ∩ Bmin (admitted unverified), Max is all of Bmax.
type Bounds struct {
	Keep, Max map[int32]bool
}

// PlanBounds builds a deferred plan for q on eng and reads its bounding
// regions: Candidates() is Bmax \ Bmin, and a result at Prob 1 with
// every candidate committed at probability 0 is exactly Bmax ∩ Bmin.
func PlanBounds(ctx context.Context, eng *core.Engine, q Query) (*Bounds, error) {
	plan, err := planDeferred(ctx, eng, q)
	if err != nil {
		return nil, err
	}
	defer plan.Close()
	cands := plan.Candidates()
	pos := make([]int, len(cands))
	for i := range pos {
		pos[i] = i
	}
	plan.CommitVerified(pos, make([]float64, len(cands)))
	plan.FinishVerification(0)
	res, err := plan.ResultAt(ctx, 1)
	if err != nil {
		return nil, err
	}
	b := &Bounds{Keep: map[int32]bool{}, Max: map[int32]bool{}}
	for _, s := range res.Segments {
		b.Keep[int32(s)] = true
		b.Max[int32(s)] = true
	}
	for _, s := range cands {
		b.Max[int32(s)] = true
	}
	return b, nil
}

// planDeferred runs q's bounding phase with verification deferred.
func planDeferred(ctx context.Context, eng *core.Engine, q Query) (*core.SharedPlan, error) {
	pts := make([]geo.Point, len(q.Locs))
	for i, l := range q.Locs {
		pts[i] = geo.Point{Lat: l.Lat, Lng: l.Lng}
	}
	switch q.Kind {
	case streach.KindReach:
		return eng.PlanReach(ctx, core.Query{Location: pts[0], Start: q.Start, Duration: q.Dur, Prob: q.Prob}, core.DeferVerification())
	case streach.KindReverse:
		return eng.PlanReverse(ctx, core.Query{Location: pts[0], Start: q.Start, Duration: q.Dur, Prob: q.Prob}, core.DeferVerification())
	case streach.KindMulti:
		return eng.PlanMulti(ctx, core.MultiQuery{Locations: pts, Start: q.Start, Duration: q.Dur, Prob: q.Prob}, core.DeferVerification())
	}
	return nil, fmt.Errorf("perfbench: no plan for kind %v", q.Kind)
}

// Verdict is the outcome of checking one answer against the oracle.
type Verdict struct {
	// MissingInBmax counts oracle-qualifying segments absent from the
	// answer although Bmax holds them: a verification fault.
	MissingInBmax int
	// MissingWithinTravel counts oracle-qualifying segments absent from
	// the answer and from Bmax although their within-travel probability
	// (Answer.Within) reaches the threshold too: segments a sound Bmax
	// must hold, so a bounding fault.
	MissingWithinTravel int
	// MissingSlotOnly counts oracle-qualifying segments absent from the
	// answer and from Bmax that reach the threshold only through slot
	// rounding (their within-travel probability is below it): the named
	// bounding fault the README describes.
	MissingSlotOnly int
	// ProbMismatch counts verified segments whose probability differs
	// from the oracle's, or lies below the threshold.
	ProbMismatch int
	// UnverifiedOutsideBmin counts segments admitted unverified that are
	// not in Bmax ∩ Bmin.
	UnverifiedOutsideBmin int
	// UnverifiedBelowProb counts segments admitted unverified that the
	// oracle puts below the threshold. Recorded, not a failure: the
	// default policy admits Bmax ∩ Bmin without verification.
	UnverifiedBelowProb int
}

// Sound reports whether the answer passed every check except the named
// slot-rounding fault.
func (v Verdict) Sound() bool {
	return v.MissingInBmax == 0 && v.MissingWithinTravel == 0 && v.ProbMismatch == 0 && v.UnverifiedOutsideBmin == 0
}

func (v Verdict) String() string {
	return fmt.Sprintf("missing_in_bmax=%d missing_within_travel=%d missing_slot_only=%d prob_mismatch=%d unverified_outside_bmin=%d unverified_below=%d",
		v.MissingInBmax, v.MissingWithinTravel, v.MissingSlotOnly, v.ProbMismatch, v.UnverifiedOutsideBmin, v.UnverifiedBelowProb)
}

// Check compares an answer (segments ascending, probabilities parallel,
// -1 for unverified) at threshold prob against the oracle answer and
// the query's bounding regions.
func Check(segs []int32, probs []float32, prob float64, want *Answer, b *Bounds) Verdict {
	var v Verdict
	in := make(map[int32]bool, len(segs))
	for i, s := range segs {
		in[s] = true
		p := probs[i]
		if p < 0 {
			if !b.Keep[s] {
				v.UnverifiedOutsideBmin++
			}
			if want.Prob(s) < prob {
				v.UnverifiedBelowProb++
			}
			continue
		}
		if p != float32(want.Prob(s)) || want.Prob(s) < prob {
			v.ProbMismatch++
		}
	}
	for s := range want.Count {
		switch {
		case in[s] || want.Prob(s) < prob:
		case b.Max[s]:
			v.MissingInBmax++
		case want.WithinProb(s) >= prob:
			v.MissingWithinTravel++
		default:
			v.MissingSlotOnly++
		}
	}
	return v
}

// Nested reports whether every segment of the answer at a higher
// threshold is in the answer at a lower one (answers shrink as Prob
// rises).
func Nested(lower, higher []int32) bool {
	for _, s := range higher {
		i := sort.Search(len(lower), func(i int) bool { return lower[i] >= s })
		if i == len(lower) || lower[i] != s {
			return false
		}
	}
	return true
}

// sameAnswer reports whether two answers are identical.
func sameAnswer(aSegs []int32, aProbs []float32, bSegs []int32, bProbs []float32) bool {
	if len(aSegs) != len(bSegs) || len(aProbs) != len(bProbs) {
		return false
	}
	for i := range aSegs {
		if aSegs[i] != bSegs[i] || aProbs[i] != bProbs[i] {
			return false
		}
	}
	return true
}
