// Command perfbench is the repository's benchmark. It builds one of four
// workloads from a seed, serves it through the public API and the HTTP
// handler, checks every answer against its own oracle, and prints the
// workload's metrics. The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced run
// (--trace 1) reports the per-layer metrics, writes its spans under
// .bench_build/traces and prints each layer's self time.
//
//	bash perfbench/run.sh --workload hot-point --seed 1 --seconds 6 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 6 --trace 0
//
// Run it from the repository root: run.sh builds the program there.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// outDir holds what a run leaves behind: scratch bundles (removed at exit)
// and traces.
const outDir = ".bench_build"

func main() {
	var (
		name    = flag.String("workload", "", "workload name, or all")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 6, "length of the measured window")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	if err := run(os.Stdout, *name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, name string, seed int64, seconds float64, traced bool) error {
	var todo []workload
	for _, w := range workloads {
		if name == w.Name || name == "all" {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		var names []string
		for _, w := range workloads {
			names = append(names, w.Name)
		}
		return fmt.Errorf("unknown workload %q (want one of %s, or all)", name, strings.Join(names, ", "))
	}
	if seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	cfg := config{sizes: fullSizes, Seed: seed, Window: time.Duration(seconds * float64(time.Second)), Trace: traced, Out: outDir}
	fmt.Fprintln(out, "#", hostFacts(seed))
	steal0, total0 := cpuSteal()
	var results []*result
	for _, w := range todo {
		res, err := runOne(w, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		report(out, res, traced)
		results = append(results, res)
	}
	if steal1, total1 := cpuSteal(); total1 > total0 {
		fmt.Fprintf(out, "# host: %.1f%% of CPU time was stolen by the hypervisor during the run\n", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	line, err := summaryJSON(results, traced)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	return nil
}

// runOne runs one workload in a scratch directory of its own.
func runOne(w workload, cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.Out, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.Out, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.Dir = dir
	res := &result{Workload: w.Name, Correct: true}
	if cfg.Trace {
		res.Spans = newTracer()
	}
	if err := w.Run(cfg, res); err != nil {
		return nil, err
	}
	if cfg.Trace {
		if err := finishLayers(res); err != nil {
			return nil, err
		}
		tdir := filepath.Join(cfg.Out, "traces")
		if err := os.MkdirAll(tdir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(tdir, fmt.Sprintf("%s-seed%d.jsonl", w.Name, cfg.Seed))
		if err := res.Spans.write(path); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		res.notef("spans written to %s", path)
		return res, nil
	}
	return res, finishEndToEnd(res)
}

// report prints a run's human-readable report as comment lines.
func report(out io.Writer, res *result, traced bool) {
	fmt.Fprintf(out, "# workload %s\n", res.Workload)
	for _, w := range workloads {
		if w.Name == res.Workload {
			fmt.Fprintf(out, "#   why: %s\n", w.Why)
		}
	}
	fmt.Fprintf(out, "#   correct=%v attempted=%d failed=%d failed_ratio=%g\n",
		res.Correct, res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	ms := res.Shown
	if traced {
		ms = res.Layers
	}
	for _, m := range ms {
		fmt.Fprintf(out, "#   %-32s %16.6f %s\n", m.Name, m.Value, m.Unit)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(out, "#   %s\n", n)
	}
	if traced {
		fmt.Fprintln(out, "#   self time by span:")
		for _, l := range formatLayers(selfTimes(res.Spans.snapshot())) {
			fmt.Fprintf(out, "# %s\n", l)
		}
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// summaryJSON renders the final result line. With several workloads the
// metric names are prefixed by the workload's.
func summaryJSON(results []*result, traced bool) ([]byte, error) {
	out := jsonResult{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, r := range results {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		ms := r.EndToEnd
		if traced {
			ms = r.Layers
		}
		for _, m := range ms {
			key := m.Name
			if len(results) > 1 {
				key = r.Workload + "/" + m.Name
			}
			out.Metrics[key] = jsonMetric{m.Value, m.Unit}
		}
	}
	return json.Marshal(out)
}

// hostFacts describes the machine and build a report came from.
func hostFacts(seed int64) string {
	commit := "unknown (not built from a git checkout)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d cpu=%q go=%s seed=%d commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), seed, commit)
}

// cpuModel reads the processor name from /proc/cpuinfo where there is one.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// cpuSteal reads the host-wide steal and total CPU ticks from /proc/stat
// (zeros where there is none). Steal is time a virtual machine's CPUs
// were runnable but ran another guest: it inflates every latency here.
func cpuSteal() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		// Guest time (fields 9 and 10) is already counted in user time.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
