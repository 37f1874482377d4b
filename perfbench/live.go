package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"streach"
	"streach/internal/experiments"
	"streach/internal/shard"
)

const (
	// liveShards is the reopened system's spatial shard count.
	liveShards = 4
	// liveCycleBatches batches make one cycle; each cycle ends with a
	// full CompactIngestN drain at liveCompactKeys keys per call. A run
	// makes one cycle per liveCycleSeconds of --seconds (a cycle takes
	// about that long on two cores), and at least enough cycles for
	// minLatencySamples queries.
	liveCycleBatches = 6
	liveCompactKeys  = 4096
	liveCycleSeconds = 3
	// liveQueriesPerBatch queries follow every batch's flush.
	liveQueriesPerBatch = 96
	// liveTailBatches are ingested after the last cycle and left
	// uncompacted, so the reopen replays them from the WAL.
	liveTailBatches = 4
	// liveDurable list queries are compared across Close and reopen.
	liveDurable = 16
)

// liveConfig is the reopened system's configuration.
func liveConfig() streach.IndexConfig {
	cfg := streach.DefaultIndexConfig()
	cfg.Shards = liveShards
	return cfg
}

// ingestConfig keeps the writer off every timer: one worker receives the
// updates in order and applies full 256-update batches (liveBatch is a
// multiple), WAL segments never rotate by age within a run, and there is
// no background compaction loop.
func ingestConfig() streach.IngestConfig {
	return streach.IngestConfig{Workers: 1, BatchSize: 256, WALSegmentAge: time.Hour}
}

// liveSys is a directory-backed system and its directory.
type liveSys struct {
	sys *streach.System
	dir string
}

func (l *liveSys) close() {
	l.sys.Close()
	os.RemoveAll(l.dir)
}

// liveDir returns a fresh save directory inside the working directory.
func liveDir(i int) (string, error) {
	dir, err := filepath.Abs(filepath.Join(".bench_build", "run", fmt.Sprintf("ingest-live-%d-%d", os.Getpid(), i)))
	if err != nil {
		return "", err
	}
	os.RemoveAll(dir)
	return dir, os.MkdirAll(filepath.Dir(dir), 0o755)
}

func runIngestLive(r *Run) error {
	ctx := context.Background()
	var (
		world   *experiments.World
		o       *Oracle
		in      LiveInputs
		list    []*checked
		passes  []float64
		firstC  counters
		setupNo int
	)
	// The first pass runs on every freshly reopened set-up system, so
	// first_pass_s is a median of setupRepeats passes, as setup_s is of
	// set-ups: one pass takes only about 2.5 s. Every pass's answers are
	// checked.
	first := r.phase("first-pass")
	firstPass := func(l *liveSys) error {
		if o == nil {
			o = NewOracle(world.Net, world.DS)
			var err error
			if in, err = genLive(newGenWorld(world.Net, o), r.Seed, worldConfig().Taxis); err != nil {
				return err
			}
			list = make([]*checked, len(in.Queries))
			for i, q := range in.Queries {
				list[i] = &checked{q: q}
			}
		}
		answers := make([]*streach.Region, len(list))
		c0 := snapCounters(l.sys)
		settle()
		t0 := time.Now()
		parallelFor(r.Clients, len(list), func(_, i int) {
			first.Attempted.Add(1)
			reg, err := l.sys.Do(ctx, list[i].q.Request())
			if err != nil {
				first.Failed.Add(1)
				r.logf("first-pass error: %v", err)
				return
			}
			answers[i] = reg
		})
		passes = append(passes, time.Since(t0).Seconds())
		firstC = snapCounters(l.sys).delta(c0)
		r.checkRegions(ctx, l.sys, o, first, list, answers)
		return nil
	}
	ls, setup, err := timedSetups(func() (*liveSys, error) {
		w, sys, err := buildSystem()
		if err != nil {
			return nil, err
		}
		world = w
		setupNo++
		dir, err := liveDir(setupNo)
		if err != nil {
			return nil, err
		}
		if err := sys.Save(dir); err != nil {
			return nil, err
		}
		sys.Close()
		if sys, err = streach.OpenSystem(dir, liveConfig()); err != nil {
			return nil, err
		}
		if err := sys.StartIngest(ingestConfig()); err != nil {
			return nil, err
		}
		return &liveSys{sys: sys, dir: dir}, nil
	}, func(l *liveSys) { l.close() }, firstPass)
	if err != nil {
		return err
	}
	defer func() { ls.close() }()
	r.E2E["setup_s"] = Metric{setup, "s"}
	r.E2E["first_pass_s"] = Metric{median(passes), "s"}

	lv := &liveRun{Run: r, ls: ls, o: o, list: list, in: in}
	c1, sh1, n1 := snapCounters(ls.sys), ls.sys.ShardStats(), r.attempted()
	if err := lv.cycles(ctx); err != nil {
		return err
	}
	if r.Trace {
		r.counterLayers(firstC, snapCounters(ls.sys).delta(c1), r.attempted()-n1)
		lv.shardLayers(sh1, ls.sys.ShardStats())
		eng := ls.sys.Engine()
		cl, err := shard.NewCluster(eng.STIndex(), eng.ConIndex(), eng.Options(), liveShards)
		if err != nil {
			return err
		}
		ops := make([]ladderOp, ladderRounds*liveQueriesPerBatch)
		for i := range ops {
			c := list[i%len(list)]
			ops[i] = ladderOp{c: c, prob: c.q.Prob}
		}
		if err := r.ladder(ctx, ls.sys, o, ladderTargets{cluster: cl}, ops); err != nil {
			return err
		}
		if err := r.precomputeLayer(ctx, ls.sys); err != nil {
			return err
		}
	}
	return lv.tailAndReopen(ctx)
}

// shardLayers prints the scatter-gather figures of the live queries:
// verification time per query summed over the shards, and how unevenly
// candidates spread over them (max over mean of candidates verified per
// shard).
func (lv *liveRun) shardLayers(before, after []streach.ShardStat) {
	var verify time.Duration
	var maxC, sumC int64
	for i := range after {
		verify += after[i].Verify - before[i].Verify
		c := after[i].CandidatesVerified - before[i].CandidatesVerified
		sumC += c
		if c > maxC {
			maxC = c
		}
	}
	lv.layerLine("shard.verify_ms", ms(verify)/float64(lv.queries), "ms")
	if sumC > 0 {
		lv.layerLine("shard.imbalance", float64(maxC)/(float64(sumC)/float64(len(after))), "ratio")
	}
}

// checkRegions checks answers[i] to list[i] against the oracle's current
// state and the system's bounding regions.
func (r *Run) checkRegions(ctx context.Context, sys *streach.System, o *Oracle, p *Phase, list []*checked, answers []*streach.Region) {
	for i, reg := range answers {
		if reg == nil {
			continue
		}
		c := list[i]
		b, err := PlanBounds(ctx, sys.Engine(), c.q)
		if err != nil {
			r.incorrect(p, "bounds of %s: %v", c.q.Shape(), err)
			continue
		}
		c.want, c.b = o.Query(c.q), b
		r.verdict(p, c, reg.SegmentIDs, reg.Probabilities, c.q.Prob)
	}
}

// liveRun is the ingest-live measured phase's state.
type liveRun struct {
	*Run
	ls       *liveSys
	o        *Oracle
	list     []*checked
	in       LiveInputs
	next     int // next batch
	nextQ    int // next list query
	lat      *Latencies
	ingestNs int64
	updates  int64
	queryNs  int64
	queries  int64
	compact  time.Duration
	appendMs []float64
	flushMs  []float64
	cycleMs  []float64
	pauseMs  []float64
	dirty    []float64
	rewrite  []float64
}

// batch ingests the next batch, flushes it, folds it into the oracle and
// asks the next liveQueriesPerBatch list queries.
func (lv *liveRun) batch(ctx context.Context, ing, qp *Phase) error {
	b := lv.in.Batches[lv.next]
	lv.next++
	ing.Attempted.Add(1)
	t0 := time.Now()
	err := lv.ls.sys.Ingest(ctx, b)
	t1 := time.Now()
	if err == nil {
		err = lv.ls.sys.FlushIngest(ctx)
	}
	lv.appendMs = append(lv.appendMs, ms(t1.Sub(t0)))
	lv.flushMs = append(lv.flushMs, ms(time.Since(t1)))
	lv.ingestNs += int64(time.Since(t0))
	if err != nil {
		ing.Failed.Add(1)
		return fmt.Errorf("ingest: %w", err)
	}
	lv.updates += int64(len(b))
	lv.o.AddUpdates(b)

	qs := make([]*checked, liveQueriesPerBatch)
	for i := range qs {
		qs[i] = lv.list[(lv.nextQ+i)%len(lv.list)]
	}
	lv.nextQ += len(qs)
	answers := make([]*streach.Region, len(qs))
	t2 := time.Now()
	parallelFor(lv.Clients, len(qs), func(client, i int) {
		qp.Attempted.Add(1)
		began := time.Now()
		reg, err := lv.ls.sys.Do(ctx, qs[i].q.Request())
		lv.lat.add(client, time.Since(began))
		if err != nil {
			qp.Failed.Add(1)
			return
		}
		answers[i] = reg
	})
	lv.queryNs += int64(time.Since(t2))
	lv.queries += int64(len(qs))
	lv.checkRegions(ctx, lv.ls.sys, lv.o, qp, qs, answers)
	return nil
}

// cycles runs whole cycles: liveCycleBatches batches, then a full
// compaction drain. The number of cycles is fixed by --seconds (one per
// liveCycleSeconds), not by a deadline, so how much data the system
// holds at the reopen, and how many samples the run takes, never depend
// on the speed of the machine.
func (lv *liveRun) cycles(ctx context.Context) error {
	ing := lv.phase("ingest")
	qp := lv.phase("live-queries")
	cp := lv.phase("compaction")
	lv.lat = newLatencies(lv.Clients)
	perCycle := liveCycleBatches * liveQueriesPerBatch
	n := max((minLatencySamples+perCycle-1)/perCycle, int(lv.Seconds/liveCycleSeconds))
	if need := n*liveCycleBatches + liveTailBatches; need > len(lv.in.Batches) {
		return fmt.Errorf("live fleet gives %d batches, %d cycles need %d", len(lv.in.Batches), n, need)
	}
	settle()
	for c := 0; c < n; c++ {
		for i := 0; i < liveCycleBatches; i++ {
			if err := lv.batch(ctx, ing, qp); err != nil {
				return err
			}
		}
		lv.dirty = append(lv.dirty, float64(lv.ls.sys.IngestStats().DirtyKeys))
		for {
			cp.Attempted.Add(1)
			before := dirFiles(lv.ls.dir)
			t0 := time.Now()
			res, err := lv.ls.sys.CompactIngestN(ctx, liveCompactKeys)
			d := time.Since(t0)
			if err != nil || !res.Durable {
				cp.Failed.Add(1)
				return fmt.Errorf("compaction: durable=%v err=%v", res.Durable, err)
			}
			lv.compact += d
			lv.cycleMs = append(lv.cycleMs, ms(d))
			lv.pauseMs = append(lv.pauseMs, ms(res.Pause))
			if res.Bytes > 0 {
				lv.rewrite = append(lv.rewrite, float64(rewritten(before, dirFiles(lv.ls.dir)))/float64(res.Bytes))
			}
			if res.Remaining == 0 {
				break
			}
		}
	}
	if err := lv.latencyMetrics(lv.lat); err != nil {
		return err
	}
	lv.E2E["query_qps"] = Metric{float64(lv.queries) / (float64(lv.queryNs) / 1e9), "1/s"}
	lv.logf("batches=%d cycles=%d", lv.next, len(lv.dirty))
	lv.layerLine("ingest_ups", float64(lv.updates)/(float64(lv.ingestNs)/1e9), "1/s")
	lv.layerLine("compact_s", lv.compact.Seconds(), "s")
	lv.layerLine("ingest.append_ms", median(lv.appendMs), "ms")
	lv.layerLine("ingest.flush_ms", median(lv.flushMs), "ms")
	lv.layerLine("ingest.compact_cycle_ms", median(lv.cycleMs), "ms")
	lv.layerLine("stindex.dirty_keys", median(lv.dirty), "count")
	lv.layerLine("stindex.compact_pause_ms", maxOf(lv.pauseMs), "ms")
	lv.layerLine("persist.bytes_rewritten_per_blob_byte", median(lv.rewrite), "ratio")
	return nil
}

// tailAndReopen ingests the uncompacted tail, records sampled answers,
// closes, reopens (timed, WAL replay included) and checks that the
// sampled answers are unchanged and still match the oracle.
func (lv *liveRun) tailAndReopen(ctx context.Context) error {
	ing := lv.phase("tail")
	qp := lv.phase("durability")
	for i := 0; i < liveTailBatches; i++ {
		b := lv.in.Batches[lv.next]
		lv.next++
		ing.Attempted.Add(1)
		if err := lv.ls.sys.Ingest(ctx, b); err != nil {
			ing.Failed.Add(1)
			return err
		}
		if err := lv.ls.sys.FlushIngest(ctx); err != nil {
			ing.Failed.Add(1)
			return err
		}
		lv.o.AddUpdates(b)
	}
	walBytes := dirBytes(filepath.Join(lv.ls.dir, "wal"))
	sample := lv.list[:liveDurable]
	before := make([]*streach.Region, len(sample))
	for i, c := range sample {
		qp.Attempted.Add(1)
		reg, err := lv.ls.sys.Do(ctx, c.q.Request())
		if err != nil {
			qp.Failed.Add(1)
			continue
		}
		before[i] = reg
	}
	if err := lv.ls.sys.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	settle()
	t0 := time.Now()
	sys, err := streach.OpenSystem(lv.ls.dir, liveConfig())
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	reopen := time.Since(t0)
	lv.ls.sys = sys
	replayed := sys.IngestStats().PendingObs
	for i, c := range sample {
		qp.Attempted.Add(1)
		reg, err := sys.Do(ctx, c.q.Request())
		if err != nil {
			qp.Failed.Add(1)
			continue
		}
		if b := before[i]; b != nil && !sameAnswer(reg.SegmentIDs, reg.Probabilities, b.SegmentIDs, b.Probabilities) {
			lv.incorrect(qp, "%s: answer changed across close and reopen", c.q.Shape())
		}
		lv.checkRegions(ctx, sys, lv.o, qp, sample[i:i+1], []*streach.Region{reg})
	}
	tail := liveTailBatches * liveBatch
	lv.layerLine("reopen_s", reopen.Seconds(), "s")
	lv.layerLine("persist.replayed_obs", float64(replayed), "count")
	lv.layerLine("ingest.wal_bytes_per_update", float64(walBytes)/float64(tail), "B")
	return nil
}

// dirFiles snapshots the regular files directly under dir.
func dirFiles(dir string) map[string]os.FileInfo {
	out := map[string]os.FileInfo{}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if fi, err := e.Info(); err == nil && fi.Mode().IsRegular() {
			out[e.Name()] = fi
		}
	}
	return out
}

// rewritten counts the bytes a compaction wrote to the save directory:
// whole files replaced (a new inode) plus growth of files kept in place.
func rewritten(before, after map[string]os.FileInfo) int64 {
	var n int64
	for name, fi := range after {
		old, ok := before[name]
		switch {
		case !ok || !os.SameFile(old, fi):
			n += fi.Size()
		case fi.Size() > old.Size():
			n += fi.Size() - old.Size()
		}
	}
	return n
}

// dirBytes sums the sizes of the regular files directly under dir.
func dirBytes(dir string) int64 {
	var n int64
	for _, fi := range dirFiles(dir) {
		n += fi.Size()
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
