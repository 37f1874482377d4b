package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the steadiness command reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readSpec() (*benchSpec, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var s benchSpec
	return &s, json.Unmarshal(b, &s)
}

// runChild runs one workload in a fresh process and returns its result
// line. Its report goes to echo when set.
func runChild(workload string, seed int64, seconds float64, trace int, echo *os.File) (*Result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	err = cmd.Run()
	if echo != nil {
		echo.Write(out.Bytes())
	}
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		last = sc.Text()
	}
	var res Result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: bad result line: %w", workload, seed, err)
	}
	return &res, nil
}

// runAll runs every workload once, each in a fresh process, printing
// each report and then one summary line per metric.
func runAll(args []string) int {
	fs := flag.NewFlagSet("all", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 = traced runs")
	fs.Parse(args)
	code := 0
	var lines []string
	for _, w := range workloadOrder {
		res, err := runChild(w, *seed, *seconds, *trace, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			code = 1
			continue
		}
		lines = append(lines, fmt.Sprintf("%-12s correct=%v attempted=%d failed=%d", w, res.Correct, res.Attempted, res.Failed))
		for _, k := range sortedKeys(res.Metrics) {
			lines = append(lines, fmt.Sprintf("%-12s %-34s %14.6f %s", w, k, res.Metrics[k].Value, res.Metrics[k].Unit))
		}
		if !res.Correct {
			code = 1
		}
	}
	fmt.Println("== summary")
	fmt.Println(strings.Join(lines, "\n"))
	return code
}

// runSteady runs each workload on --runs seeds and prints, per
// end-to-end metric, the median, the quartiles and the interquartile
// spread as a share of the median, against the metric's bound in
// BENCHMARK.json (the spread must stay within the bound; the benchmark
// aims for a third of it), plus each run's failed share.
func runSteady(args []string) int {
	spec, err := readSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: BENCHMARK.json:", err)
		return 2
	}
	fs := flag.NewFlagSet("steady", flag.ExitOnError)
	runs := fs.Int("runs", 10, "runs per workload, with seeds 1..runs")
	seconds := fs.Float64("seconds", float64(spec.RunSeconds), "length of the measured phase")
	fs.Parse(args)
	code := 0
	for _, w := range workloadOrder {
		vals := map[string][]float64{}
		var shares []string
		for seed := int64(1); seed <= int64(*runs); seed++ {
			res, err := runChild(w, seed, *seconds, 0, nil)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				return 1
			}
			for k, m := range res.Metrics {
				vals[k] = append(vals[k], m.Value)
			}
			shares = append(shares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
			fmt.Fprintf(os.Stderr, "steady %s seed %d done\n", w, seed)
		}
		fmt.Printf("== %s (%d runs) failed/attempted: %s\n", w, *runs, strings.Join(shares, " "))
		for _, m := range spec.EndToEnd {
			v := vals[m.Name]
			if len(v) < 2 {
				fmt.Printf("%-14s missing\n", m.Name)
				code = 1
				continue
			}
			q := quartiles(v)
			spread := (q[2] - q[0]) / q[1]
			verdict := "ok"
			switch {
			case spread > m.Bound:
				verdict = "OVER BOUND"
				code = 1
			case spread > m.Bound/3:
				verdict = "over bound/3"
			}
			fmt.Printf("%-14s median=%-12.4f q1=%-12.4f q3=%-12.4f spread=%.4f bound=%.2f %s\n",
				m.Name, q[1], q[0], q[2], spread, m.Bound, verdict)
		}
	}
	return code
}

// quartiles returns the three cut points of v as Python's
// statistics.quantiles(v, n=4) computes them (the default exclusive
// method).
func quartiles(v []float64) [3]float64 {
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	ld := len(d)
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j, delta := i*m/4, i*m%4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > ld-1 {
			j, delta = ld-1, 4
		}
		out[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return out
}

func sortedKeys(m map[string]Metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
