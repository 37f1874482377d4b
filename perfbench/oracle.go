package main

import (
	"fmt"
	"math/bits"
	"time"

	"streach"
	"streach/internal/geo"
	"streach/internal/roadnet"
	"streach/internal/traj"
)

// Oracle answers reachability queries by scanning trajectories. It reads
// Dataset.Matched plus every acknowledged live update and nothing of the
// system's ST-Index or Con-Index, so it is an independent statement of
// the paper's semantics (Eq. 3.1):
//
//   - forward: the probability of segment r is the share of days on which
//     some taxi seen on the start segment during the start slot is also
//     seen on r during the window's slots;
//   - multi: the maximum of the forward probability over the starts;
//   - reverse: the share of days on which some taxi seen on r during the
//     start slot is also seen on the query segment during the window.
//
// A visit occupies every slot from its entry slot to its exit slot, as
// the index build expands visits; slots past midnight are dropped.
//
// Alongside each answer the oracle counts, per segment, the days on
// which the same pair of visits is also at most the window's length of
// travel apart: the taxi enters the later segment no more than Duration
// after leaving the earlier one. Slot semantics allow more travel than
// that (a taxi seen anywhere in the start slot counts until the end of
// the window's last slot), so the within-travel count is never larger.
// A bounding region derived from maximum speeds over Duration must hold
// every segment whose within-travel probability reaches Prob.
type Oracle struct {
	net      *roadnet.Network
	days     int
	numSlots int
	slotMs   int32
	// trajs[t] is taxi-day t's visits; tDay[t] its day.
	trajs [][]oVisit
	tDay  []int
	// byKey maps (taxi, day) to its trajectory, so live updates of one
	// taxi-day join the same trajectory.
	byKey map[[2]int32]int
	// bySeg[s] lists the (trajectory, slot span) visits of segment s.
	bySeg [][]oSegVisit
	// scratch, reused across queries (the oracle is single-threaded).
	mask, within []uint32
	touched      []int32
}

type oVisit struct {
	seg         int32
	s0, s1      int16
	enter, exit int32
}

type oSegVisit struct {
	t           int32
	s0, s1      int16
	enter, exit int32
}

// NewOracle indexes ds's trajectories for scanning. Days are kept as
// bits of a uint32, so the dataset may span at most 32 days.
func NewOracle(net *roadnet.Network, ds *traj.Dataset) *Oracle {
	if ds.Days > 32 {
		panic(fmt.Sprintf("oracle: %d days, at most 32", ds.Days))
	}
	o := &Oracle{
		net:      net,
		days:     ds.Days,
		numSlots: 86400 / slotSeconds,
		slotMs:   slotSeconds * 1000,
		byKey:    map[[2]int32]int{},
		bySeg:    make([][]oSegVisit, net.NumSegments()),
		mask:     make([]uint32, net.NumSegments()),
		within:   make([]uint32, net.NumSegments()),
	}
	for i := range ds.Matched {
		mt := &ds.Matched[i]
		for _, v := range mt.Visits {
			o.add(int32(mt.Taxi), int(mt.Day), int32(v.Segment), v.EnterMs, v.ExitMs)
		}
	}
	return o
}

// AddUpdates folds acknowledged live updates into the oracle.
func (o *Oracle) AddUpdates(us []streach.IngestUpdate) {
	for _, u := range us {
		o.add(u.TaxiID, u.Day, u.SegmentID, u.EnterMs, u.ExitMs)
	}
}

func (o *Oracle) add(taxi int32, day int, seg int32, enterMs, exitMs int32) {
	if day < 0 || day >= o.days {
		return
	}
	s0, s1 := int(enterMs/o.slotMs), int(exitMs/o.slotMs)
	if s0 < 0 {
		s0 = 0
	}
	if s1 >= o.numSlots {
		s1 = o.numSlots - 1
	}
	if s0 > s1 {
		return
	}
	key := [2]int32{taxi, int32(day)}
	t, ok := o.byKey[key]
	if !ok {
		t = len(o.trajs)
		o.byKey[key] = t
		o.trajs = append(o.trajs, nil)
		o.tDay = append(o.tDay, day)
	}
	o.trajs[t] = append(o.trajs[t], oVisit{seg: seg, s0: int16(s0), s1: int16(s1), enter: enterMs, exit: exitMs})
	o.bySeg[seg] = append(o.bySeg[seg], oSegVisit{t: int32(t), s0: int16(s0), s1: int16(s1), enter: enterMs, exit: exitMs})
}

// Snap resolves a query location to its segment by network geometry, the
// same snapping rule the system applies.
func (o *Oracle) Snap(l streach.Location) roadnet.SegmentID {
	id, _, _, _ := o.net.SnapPoint(geo.Point{Lat: l.Lat, Lng: l.Lng})
	return id
}

// Window returns the slot range [lo, hi] a query window covers.
func (o *Oracle) Window(q Query) (lo, hi int) {
	lo = int(q.Start.Seconds()) / slotSeconds
	hi = int((q.Start + q.Dur).Seconds()) / slotSeconds
	if hi >= o.numSlots {
		hi = o.numSlots - 1
	}
	return lo, hi
}

// Answer is an oracle answer: the day count of every segment with at
// least one supporting day, and the within-travel day count.
type Answer struct {
	Days  int
	Count map[int32]int
	// Within counts the supporting days on which the taxi also made the
	// trip in at most the window's length of travel.
	Within map[int32]int
}

// Prob returns the oracle probability of seg.
func (a *Answer) Prob(seg int32) float64 { return float64(a.Count[seg]) / float64(a.Days) }

// WithinProb returns the within-travel probability of seg.
func (a *Answer) WithinProb(seg int32) float64 { return float64(a.Within[seg]) / float64(a.Days) }

// Query answers q by scanning trajectories.
func (o *Oracle) Query(q Query) *Answer {
	lo, hi := o.Window(q)
	ans := &Answer{Days: o.days, Count: map[int32]int{}, Within: map[int32]int{}}
	for _, l := range q.Locs {
		start := o.Snap(l)
		if q.Kind == streach.KindReverse {
			o.scan(start, lo, hi, lo, lo, q.Dur, true)
		} else {
			o.scan(start, lo, lo, lo, hi, q.Dur, false)
		}
		for _, s := range o.touched {
			if n := bits.OnesCount32(o.mask[s]); n > ans.Count[s] {
				ans.Count[s] = n
			}
			if n := bits.OnesCount32(o.within[s]); n > ans.Within[s] {
				ans.Within[s] = n
			}
			o.mask[s], o.within[s] = 0, 0
		}
		o.touched = o.touched[:0]
	}
	return ans
}

// scan marks, per segment, the days on which some taxi seen on anchor
// during slots [aLo, aHi] is seen on that segment during [sLo, sHi], in
// mask, and the days on which such a pair of visits is at most travel
// apart, in within. Forward, the taxi is on the anchor first; reverse,
// on the segment first.
func (o *Oracle) scan(anchor roadnet.SegmentID, aLo, aHi, sLo, sHi int, travel time.Duration, reverse bool) {
	maxMs := int32(travel / time.Millisecond)
	for _, v := range o.bySeg[anchor] {
		if int(v.s0) > aHi || int(v.s1) < aLo {
			continue
		}
		bit := uint32(1) << uint(o.tDay[v.t])
		for _, w := range o.trajs[v.t] {
			if int(w.s0) > sHi || int(w.s1) < sLo {
				continue
			}
			if o.mask[w.seg] == 0 {
				o.touched = append(o.touched, w.seg)
			}
			o.mask[w.seg] |= bit
			from, to := v.exit, w.enter
			first, then := v.enter, w.enter
			if reverse {
				from, to = w.exit, v.enter
				first, then = w.enter, v.enter
			}
			if then >= first && to-from <= maxMs {
				o.within[w.seg] |= bit
			}
		}
	}
}
