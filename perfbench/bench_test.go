package main

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"

	"streach"
	"streach/internal/experiments"
)

var (
	fixtureOnce sync.Once
	fixtureW    *experiments.World
	fixtureSys  *streach.System
	fixtureO    *Oracle
	fixtureG    *genWorld
	fixtureErr  error
)

// fixture builds the benchmark world once per test binary.
func fixture(t *testing.T) (*experiments.World, *streach.System, *Oracle, *genWorld) {
	t.Helper()
	fixtureOnce.Do(func() {
		fixtureW, fixtureSys, fixtureErr = buildSystem()
		if fixtureErr == nil {
			fixtureO = NewOracle(fixtureW.Net, fixtureW.DS)
			fixtureG = newGenWorld(fixtureW.Net, fixtureO)
		}
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixtureW, fixtureSys, fixtureO, fixtureG
}

// encodeInputs is the canonical byte form of generated inputs.
func encodeInputs(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestInputsReproducible checks that one seed always gives byte-identical
// inputs, and another seed different ones.
func TestInputsReproducible(t *testing.T) {
	_, _, _, g := fixture(t)
	gen := func(seed int64) []byte {
		live, err := genLive(g, seed, worldConfig().Taxis)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		b.Write(encodeInputs(t, genExplore(g, seed)))
		b.Write(encodeInputs(t, live))
		return b.Bytes()
	}
	a, b, c := gen(7), gen(7), gen(8)
	if !bytes.Equal(a, b) {
		t.Fatal("seed 7 gave different inputs on two calls")
	}
	if bytes.Equal(a, c) {
		t.Fatal("seeds 7 and 8 gave identical inputs")
	}
}

// TestInputsShape checks the generated make-up the workloads rely on.
func TestInputsShape(t *testing.T) {
	_, _, _, g := fixture(t)
	ex := genExplore(g, 3)
	if len(ex.Queries) != exploreQueries || exploreQueries%exploreRound != 0 {
		t.Fatalf("explore list has %d queries, want %d in whole rounds of %d", len(ex.Queries), exploreQueries, exploreRound)
	}
	shapes := map[string]bool{}
	kinds := map[streach.Kind]int{}
	for _, q := range ex.Queries {
		if shapes[q.Shape()] {
			t.Fatalf("repeated shape %s", q.Shape())
		}
		shapes[q.Shape()] = true
		kinds[q.Kind]++
	}
	// Reach/reverse/multi at 6/3/1 in every ten queries of the design.
	want := map[streach.Kind]int{}
	for i := 0; i < exploreQueries; i++ {
		switch {
		case i%10 == 9:
			want[streach.KindMulti]++
		case i%10 >= 6:
			want[streach.KindReverse]++
		default:
			want[streach.KindReach]++
		}
	}
	for k, n := range want {
		if kinds[k] != n {
			t.Fatalf("kind mix %v, want %v", kinds, want)
		}
	}
	live, err := genLive(g, 3, worldConfig().Taxis)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range live.Batches {
		if len(b) != liveBatch {
			t.Fatalf("batch of %d updates", len(b))
		}
		for _, u := range b {
			if u.TaxiID < int32(worldConfig().Taxis) {
				t.Fatalf("live taxi %d collides with the base fleet", u.TaxiID)
			}
		}
	}
}

// TestOracleMatchesExhaustive checks the trajectory-scan oracle against
// the system's exhaustive search, which verifies every segment within
// the worst-case radius without any bounding phase.
func TestOracleMatchesExhaustive(t *testing.T) {
	_, sys, o, g := fixture(t)
	ctx := context.Background()
	n := 0
	for _, q := range genExplore(g, 11).Queries {
		if q.Kind == streach.KindMulti {
			continue
		}
		if n++; n > 24 {
			break
		}
		reg, err := sys.Do(ctx, q.Request(), streach.WithAlgorithm(streach.AlgoExhaustive))
		if err != nil {
			t.Fatal(err)
		}
		want := o.Query(q)
		got := map[int32]float32{}
		for i, s := range reg.SegmentIDs {
			got[s] = reg.Probabilities[i]
		}
		for s := range want.Count {
			p := want.Prob(s)
			if p < q.Prob {
				continue
			}
			if gp, ok := got[s]; !ok || gp != float32(p) {
				t.Errorf("%s prob=%v: segment %d oracle %v, exhaustive %v (present %v)", q.Shape(), q.Prob, s, p, gp, ok)
			}
		}
		for s, gp := range got {
			if float32(want.Prob(s)) != gp {
				t.Errorf("%s prob=%v: exhaustive reports segment %d at %v, oracle %v", q.Shape(), q.Prob, s, gp, want.Prob(s))
			}
		}
	}
}

// TestProbesHitOnlySlotRounding checks the named fault the probes carry:
// their answers are incomplete, every missing segment lies outside Bmax
// and reaches Prob only through slot rounding, and every other check
// passes. It also checks that no within-travel count exceeds its count.
func TestProbesHitOnlySlotRounding(t *testing.T) {
	_, sys, o, g := fixture(t)
	ctx := context.Background()
	for _, q := range probeQueries(g) {
		reg, err := sys.Do(ctx, q.Request())
		if err != nil {
			t.Fatal(err)
		}
		b, err := PlanBounds(ctx, sys.Engine(), q)
		if err != nil {
			t.Fatal(err)
		}
		want := o.Query(q)
		for s, n := range want.Within {
			if n > want.Count[s] {
				t.Errorf("%s: segment %d within-travel days %d > days %d", q.Shape(), s, n, want.Count[s])
			}
		}
		v := Check(reg.SegmentIDs, reg.Probabilities, q.Prob, want, b)
		if !v.Sound() || v.MissingSlotOnly == 0 {
			t.Errorf("%s: %v, want only missing_slot_only > 0", q.Shape(), v)
		}
	}
}

// TestCheckClassifiesMissing checks how Check files a missing segment: in
// Bmax, or reached within the window's travel, it is a fault of the
// program; otherwise it is the named slot-rounding fault.
func TestCheckClassifiesMissing(t *testing.T) {
	want := &Answer{Days: 10,
		Count:  map[int32]int{1: 5, 2: 5, 3: 5, 4: 5, 5: 1},
		Within: map[int32]int{1: 5, 2: 1, 3: 5, 4: 1, 5: 1}}
	b := &Bounds{Keep: map[int32]bool{1: true}, Max: map[int32]bool{1: true, 2: true}}
	// Segment 1 present (unverified); 2 missing in Bmax; 3 missing outside
	// Bmax but within travel; 4 missing by slot rounding only; 5 below Prob.
	v := Check([]int32{1}, []float32{-1}, 0.3, want, b)
	if v.MissingInBmax != 1 || v.MissingWithinTravel != 1 || v.MissingSlotOnly != 1 || v.Sound() {
		t.Fatalf("verdict %v", v)
	}
	v = Check([]int32{1, 2, 3}, []float32{-1, 0.5, 0.5}, 0.3, want, b)
	if !v.Sound() || v.MissingSlotOnly != 1 {
		t.Fatalf("verdict %v", v)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q := quartiles(v); q != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles %v", q)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q := quartiles([]float64{4, 1, 2}); q != [3]float64{1, 2, 4} {
		t.Fatalf("quartiles %v", q)
	}
}
