// Command perfbench is the streach benchmark: two workloads over the
// world `streach serve` builds by default, every answer checked against
// a trajectory-scan oracle, end-to-end metrics by default and per-layer
// metrics with --trace 1. See README.md.
//
//	perfbench --workload explore|ingest-live --seed N --seconds S --trace 0|1
//	perfbench all    [--seed N] [--seconds S]    each workload in a fresh process
//	perfbench steady [--runs N] [--seconds S]    spread per metric, seeds 1..N
package main

import (
	"flag"
	"fmt"
	"os"
)

var workloads = map[string]func(*Run) error{
	"explore":     runExplore,
	"ingest-live": runIngestLive,
}

// workloadOrder is the order `all` and `steady` run them in.
var workloadOrder = []string{"explore", "ingest-live"}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "all":
			os.Exit(runAll(os.Args[2:]))
		case "steady":
			os.Exit(runSteady(os.Args[2:]))
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	workload := fs.String("workload", "", "explore or ingest-live")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	fs.Parse(os.Args[1:])
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	r := newRun(*workload, *seed, *seconds, *trace == 1, os.Stdout)
	r.logf("workload=%s seed=%d seconds=%v trace=%v clients=%d", r.Workload, r.Seed, r.Seconds, r.Trace, r.Clients)
	var heap *heapPeak
	if r.Trace {
		heap = watchHeap()
	}
	if err := run(r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r.E2E["peak_rss_mb"] = Metric{peakRSSMB(), "MB"}
	if heap != nil {
		_, gc := goRuntime()
		r.Layers["go.heap_peak_mb"] = Metric{heap.finish(), "MB"}
		r.Layers["go.gc_cpu_fraction"] = Metric{gc, "ratio"}
	}
	r.report()
	writeJSONLine(os.Stdout, r.result())
}
