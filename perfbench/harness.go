package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Metric is one reported figure.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line a run prints.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Phase counts one phase's operations. Failed operations are errors and
// named-fault probes whose answer the oracle shows incomplete; Incorrect
// counts answers that failed an oracle check for any other reason (they
// make the run incorrect).
type Phase struct {
	Name      string
	Attempted atomic.Int64
	Failed    atomic.Int64
	Incorrect atomic.Int64
}

// Run is one workload run's accounting and output.
type Run struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Clients  int
	Phases   []*Phase
	E2E      map[string]Metric
	Layers   map[string]Metric
	out      io.Writer
	// faultMisses counts checked answers to seeded queries (not probes)
	// hit by the named slot-rounding fault, and faultSegs the segments
	// they missed.
	faultMisses, faultSegs atomic.Int64
	// unverifiedBelow counts admitted-unverified segments the oracle puts
	// below the threshold, over every checked answer.
	unverifiedBelow atomic.Int64
	// incorrectShown caps the detail lines printed for wrong answers.
	incorrectShown atomic.Int64
}

func newRun(workload string, seed int64, seconds float64, trace bool, out io.Writer) *Run {
	return &Run{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		Clients: runtime.NumCPU(),
		E2E:     map[string]Metric{}, Layers: map[string]Metric{},
		out: out,
	}
}

// phase starts a new accounting phase.
func (r *Run) phase(name string) *Phase {
	p := &Phase{Name: name}
	r.Phases = append(r.Phases, p)
	return p
}

func (r *Run) logf(format string, args ...any) {
	fmt.Fprintf(r.out, "# "+format+"\n", args...)
}

// incorrect records a wrong answer on p and prints the first few.
func (r *Run) incorrect(p *Phase, format string, args ...any) {
	p.Incorrect.Add(1)
	if r.incorrectShown.Add(1) <= 10 {
		r.logf("INCORRECT %s: "+format, append([]any{p.Name}, args...)...)
	}
}

// attempted is the number of operations every phase so far attempted.
func (r *Run) attempted() int64 {
	n := int64(0)
	for _, p := range r.Phases {
		n += p.Attempted.Load()
	}
	return n
}

// result folds the phases into the final line.
func (r *Run) result() Result {
	res := Result{Correct: true, Metrics: map[string]Metric{}}
	for _, p := range r.Phases {
		res.Attempted += p.Attempted.Load()
		res.Failed += p.Failed.Load()
		if p.Incorrect.Load() > 0 {
			res.Correct = false
		}
	}
	src := r.E2E
	if r.Trace {
		src = r.Layers
	}
	for k, v := range src {
		res.Metrics[k] = v
	}
	return res
}

// report prints the per-phase accounting and every metric, one per line.
func (r *Run) report() {
	for _, p := range r.Phases {
		fmt.Fprintf(r.out, "phase %-14s attempted=%d failed=%d incorrect=%d\n",
			p.Name, p.Attempted.Load(), p.Failed.Load(), p.Incorrect.Load())
	}
	fmt.Fprintf(r.out, "fault  checked answers to seeded queries missing slot-rounding-only segments: %d answers, %d segments (recorded, not failed)\n",
		r.faultMisses.Load(), r.faultSegs.Load())
	for _, m := range []map[string]Metric{r.E2E, r.Layers} {
		for _, k := range sortedKeys(m) {
			fmt.Fprintf(r.out, "metric %-34s %14.6f %s\n", k, m[k].Value, m[k].Unit)
		}
	}
}

// roundLoop runs ops in whole rounds of roundLen on r.Clients closed-loop
// clients until the deadline has passed, at least minOps ops have
// started, and the current round is done. op(i) performs global
// operation i. It returns the number of ops run.
func roundLoop(clients, roundLen int, deadline time.Time, minOps int64, op func(client int, i int64)) int64 {
	var next atomic.Int64
	var mu sync.Mutex
	limit := int64(math.MaxInt64)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				mu.Lock()
				if limit == math.MaxInt64 && i >= minOps && time.Now().After(deadline) {
					limit = (i + int64(roundLen) - 1) / int64(roundLen) * int64(roundLen)
				}
				l := limit
				mu.Unlock()
				if i >= l {
					return
				}
				op(c, i)
			}
		}(c)
	}
	wg.Wait()
	n := next.Load()
	if n > limit {
		n = limit
	}
	return n
}

// parallelFor runs op(client, i) for i in 0..n-1 on clients goroutines,
// each taking the next index.
func parallelFor(clients, n int, op func(client, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(n); i = next.Add(1) - 1 {
				op(c, int(i))
			}
		}(c)
	}
	wg.Wait()
}

// Latencies collects per-client samples without locking.
type Latencies struct{ per [][]float64 }

func newLatencies(clients int) *Latencies { return &Latencies{per: make([][]float64, clients)} }

func (l *Latencies) add(client int, d time.Duration) {
	l.per[client] = append(l.per[client], float64(d)/float64(time.Millisecond))
}

func (l *Latencies) all() []float64 {
	var out []float64
	for _, p := range l.per {
		out = append(out, p...)
	}
	sort.Float64s(out)
	return out
}

// qpsWindows is how many equal windows a closed-loop phase's throughput
// is measured in; query_qps is their median, so a burst of noise from
// outside the program moves it less than it moves a plain average.
const qpsWindows = 10

// windowRate splits [0, spanMs) into qpsWindows windows and returns the
// median number of completions (at offsets doneMs) per second.
func windowRate(doneMs []float64, spanMs float64) float64 {
	w := spanMs / qpsWindows
	counts := make([]float64, qpsWindows)
	for _, t := range doneMs {
		if i := int(t / w); i < qpsWindows {
			counts[i]++
		}
	}
	for i := range counts {
		counts[i] /= w / 1000
	}
	return median(counts)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile returns the q-quantile of sorted xs by linear interpolation
// between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// minLatencySamples is the fewest samples a latency phase takes: with
// 1000, at least ten lie beyond the 99th percentile.
const minLatencySamples = 1000

// latencyMetrics sets query_p50_ms and query_p99_ms from samples. Every
// latency phase runs at least minLatencySamples operations; a shorter one
// is an error of the benchmark.
func (r *Run) latencyMetrics(l *Latencies) error {
	s := l.all()
	if len(s) < minLatencySamples {
		return fmt.Errorf("latency phase took %d samples, fewer than %d", len(s), minLatencySamples)
	}
	r.E2E["query_p50_ms"] = Metric{quantile(s, 0.50), "ms"}
	r.E2E["query_p99_ms"] = Metric{quantile(s, 0.99), "ms"}
	r.logf("latency samples=%d beyond p99=%d", len(s), len(s)-int(math.Ceil(0.99*float64(len(s)))))
	return nil
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "VmHWM:") {
			fields := strings.Fields(line)
			kb, _ := strconv.ParseFloat(fields[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// goRuntime reads the heap high-water proxy and the GC CPU fraction from
// runtime/metrics.
func goRuntime() (heapMB, gcFraction float64) {
	samples := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	val := func(i int) float64 {
		switch samples[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(samples[i].Value.Uint64())
		case metrics.KindFloat64:
			return samples[i].Value.Float64()
		}
		return 0
	}
	if total := val(2); total > 0 {
		gcFraction = val(1) / total
	}
	return val(0) / (1 << 20), gcFraction
}

// heapPeak samples the live heap while a run is in progress.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

// watchHeap samples the live heap every 50 ms until stopped. Sampling
// reads counters only; it does no work the measured program would see.
func watchHeap() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			mb, _ := goRuntime()
			if uint64(mb) > h.peak.Load() {
				h.peak.Store(uint64(mb))
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapPeak) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak.Load())
}

// writeJSONLine prints v as one JSON line.
func writeJSONLine(w io.Writer, v any) {
	b, _ := json.Marshal(v)
	fmt.Fprintln(w, string(b))
}
