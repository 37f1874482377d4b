package main

import (
	"math/rand"
	"sort"
	"time"

	"streach"
	"streach/internal/roadnet"
	"streach/internal/traj"
)

// The generator turns one --seed into every input a run feeds the
// program: the explore query list and the live fleet's update batches
// and queries. Each workload
// draws from its own stream (seed mixed with a workload constant), so
// changing one workload's inputs never shifts another's. Inputs depend
// only on the seed and on the fixed world, never on timing.

// World facts the generator draws from.
type genWorld struct {
	net *roadnet.Network
	// traffic[slot][seg] counts taxi visits on seg during slot.
	traffic [][]int32
}

func newGenWorld(net *roadnet.Network, o *Oracle) *genWorld {
	g := &genWorld{net: net, traffic: make([][]int32, o.numSlots)}
	for s := range g.traffic {
		g.traffic[s] = make([]int32, net.NumSegments())
	}
	for seg, vs := range o.bySeg {
		for _, v := range vs {
			for sl := v.s0; sl <= v.s1; sl++ {
				g.traffic[sl][seg]++
			}
		}
	}
	return g
}

// location returns the query point of a segment: its midpoint.
func (g *genWorld) location(seg int) streach.Location {
	p := g.net.Segment(roadnet.SegmentID(seg)).Midpoint()
	return streach.Location{Lat: p.Lat, Lng: p.Lng}
}

// drawBusy picks the segment at quantile u in [0,1) of the traffic
// distribution during slot: a uniform u draws a segment with
// probability proportional to its traffic.
func (g *genWorld) drawBusy(u float64, slot int) int {
	row := g.traffic[slot]
	total := int64(0)
	for _, c := range row {
		total += int64(c)
	}
	if total == 0 {
		return int(u * float64(len(row)))
	}
	x := int64(u * float64(total))
	for seg, c := range row {
		if x < int64(c) {
			return seg
		}
		x -= int64(c)
	}
	return len(row) - 1
}

var thresholds = []float64{0.1, 0.2, 0.5, 0.8}

// stream returns the random source of one workload.
func stream(seed int64, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + salt))
}

// ExploreInputs is the explore workload's query list.
type ExploreInputs struct {
	Queries []Query `json:"queries"`
}

// exploreQueries is the explore list length: large enough that the
// working set dwarfs the decoded time-list cache and the plan cache.
const exploreQueries = 192

// genExplore draws the explore list: exploreQueries distinct shapes
// starting over 07:00–21:00.
func genExplore(g *genWorld, seed int64) ExploreInputs {
	return ExploreInputs{Queries: genQueries(g, stream(seed, 1), exploreQueries, 7*60, 21*60)}
}

// busyBins is how many equal-traffic bins start segments are drawn from,
// and startBinMin the width in minutes of the start-time bins.
const (
	busyBins    = 40
	startBinMin = 15
)

// genQueries draws n distinct query shapes starting in [fromMin, toMin)
// minutes of the day. The list follows a fixed design so that seeds
// differ in place, minute and order, not in make-up: every list holds
// the same multiset of kinds (reach/reverse/multi at 60/30/10), windows
// (5–30 min, evenly), thresholds (0.1/0.2/0.5/0.8, evenly), start bins
// (startBinMin wide, evenly) and busyness bins (each start segment is
// drawn from one of busyBins equal shares of the traffic at its start
// slot), paired the same way for every seed. The seed draws the minute
// within the start bin, the segment within its busyness bin (by
// traffic) and the order of the list. Multi queries take three start
// segments.
func genQueries(g *genWorld, rng *rand.Rand, n, fromMin, toMin int) []Query {
	design := rand.New(rand.NewSource(1))
	startBins := (toMin - fromMin) / startBinMin
	kinds := make([]streach.Kind, n)
	durs := make([]int, n)
	probs := make([]float64, n)
	startBin := make([]int, n)
	bins := make([][]int, 3)
	for j := range bins {
		bins[j] = make([]int, n)
	}
	for i := 0; i < n; i++ {
		switch {
		case i%10 < 6:
			kinds[i] = streach.KindReach
		case i%10 < 9:
			kinds[i] = streach.KindReverse
		default:
			kinds[i] = streach.KindMulti
		}
		durs[i] = 5 + i%26
		probs[i] = thresholds[i%len(thresholds)]
		startBin[i] = i % startBins
		for j := range bins {
			bins[j][i] = i % busyBins
		}
	}
	shuffle := func(swap func(i, j int)) { design.Shuffle(n, swap) }
	shuffle(func(i, j int) { durs[i], durs[j] = durs[j], durs[i] })
	shuffle(func(i, j int) { probs[i], probs[j] = probs[j], probs[i] })
	shuffle(func(i, j int) { startBin[i], startBin[j] = startBin[j], startBin[i] })
	for _, b := range bins {
		shuffle(func(i, j int) { b[i], b[j] = b[j], b[i] })
	}
	seen := map[string]bool{}
	out := make([]Query, 0, n)
	for i := 0; i < n; i++ {
		q := Query{Kind: kinds[i], Dur: time.Duration(durs[i]) * time.Minute, Prob: probs[i]}
		nl := 1
		if q.Kind == streach.KindMulti {
			nl = 3
		}
		for {
			q.Start = time.Duration(fromMin+startBinMin*startBin[i]+rng.Intn(startBinMin)) * time.Minute
			slot := int(q.Start.Seconds()) / slotSeconds
			q.Locs = q.Locs[:0]
			for j := 0; j < nl; j++ {
				u := (float64(bins[j][i]) + rng.Float64()) / busyBins
				q.Locs = append(q.Locs, g.location(g.drawBusy(u, slot)))
			}
			if !seen[q.Shape()] {
				break
			}
		}
		seen[q.Shape()] = true
		q.Locs = append([]streach.Location(nil), q.Locs...)
		out = append(out, q)
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// LiveInputs are the ingest-live workload's update batches and queries.
type LiveInputs struct {
	// Batches are fixed-size IngestUpdate batches of the live fleet.
	Batches [][]streach.IngestUpdate `json:"batches"`
	// Queries are asked after every batch (16:00–19:00 starts).
	Queries []Query `json:"queries"`
}

const (
	// liveTaxis is the live fleet's size; its taxi IDs start above the
	// base fleet's.
	liveTaxis = 40
	// liveBatch is the IngestUpdate batch size: a multiple of the
	// writer's 256-update batch, so its single worker never waits on its
	// flush timer for a partial batch.
	liveBatch = 2048
	// liveQueries is the ingest-live query list length.
	liveQueries = 192
)

// genLive simulates a second fleet with its own seed and streams its
// 15:30–19:30 visits, ordered by entry time of day, then day, then taxi,
// as liveBatch-sized batches (the remainder is dropped). The queries
// start over 16:00–19:00.
func genLive(g *genWorld, seed int64, baseTaxis int) (LiveInputs, error) {
	ds, err := traj.Simulate(g.net, traj.SimConfig{
		Taxis:           liveTaxis,
		Days:            worldConfig().Days,
		Profile:         traj.DefaultSpeedProfile(),
		Seed:            seed*1_000_003 + 3,
		MeanTripMinutes: 18,
		MeanIdleMinutes: 14,
		DaySpeedJitter:  0.15,
	})
	if err != nil {
		return LiveInputs{}, err
	}
	const from, to = (15*60 + 30) * 60_000, (19*60 + 30) * 60_000
	var ups []streach.IngestUpdate
	for _, mt := range ds.Matched {
		for _, v := range mt.Visits {
			if v.EnterMs >= from && v.EnterMs < to {
				ups = append(ups, streach.IngestUpdate{
					TaxiID:    int32(baseTaxis) + int32(mt.Taxi),
					Day:       int(mt.Day),
					SegmentID: int32(v.Segment),
					EnterMs:   v.EnterMs,
					ExitMs:    v.ExitMs,
					SpeedMps:  v.Speed,
				})
			}
		}
	}
	sort.SliceStable(ups, func(i, j int) bool {
		a, b := ups[i], ups[j]
		if a.EnterMs != b.EnterMs {
			return a.EnterMs < b.EnterMs
		}
		if a.Day != b.Day {
			return a.Day < b.Day
		}
		return a.TaxiID < b.TaxiID
	})
	in := LiveInputs{Queries: genQueries(g, stream(seed, 4), liveQueries, 16*60, 19*60)}
	for len(ups) >= liveBatch {
		in.Batches = append(in.Batches, ups[:liveBatch:liveBatch])
		ups = ups[liveBatch:]
	}
	return in, nil
}
