// Command perfbench is the repository's benchmark. One invocation runs one
// workload from a seed and prints, as the last line of standard output, a
// JSON object with the outcome counts and the metrics:
//
//	bash perfbench/run.sh --workload paper-serve --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it measures the end-to-end metrics with tracing off; with
// --trace 1 it replays the workload's inputs rung by rung down the layer
// ladder (HTTP → serve.Service → placement → core, plus the fleet and
// paper-reproduction layers) and prints the per-layer metrics, writing the
// recorded spans under .bench_build/spans. See README.md in this directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/telemetry"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries what every workload needs: where the checkout is, the seed
// its inputs derive from, how long to measure, and the span recorder (nil
// when tracing is off).
type run struct {
	root     string
	seed     int64
	measure  time.Duration
	tracer   *telemetry.Tracer
	conns    int // client connections / caller threads: nproc
	res      result
	mismatch []string // descriptions of the first few wrong outputs
}

// put records a metric.
func (r *run) put(name string, value float64, unit string) {
	r.res.Metrics[name] = metric{Value: value, Unit: unit}
}

// op counts one attempted operation and whether it failed.
func (r *run) op(failed bool) {
	r.res.Attempted++
	if failed {
		r.res.Failed++
	}
}

// wrong counts a failed operation whose output did not check out.
func (r *run) wrong(format string, args ...any) {
	r.op(true)
	if len(r.mismatch) < 5 {
		r.mismatch = append(r.mismatch, fmt.Sprintf(format, args...))
	}
}

// span opens a benchmark-side span (a no-op when tracing is off).
func (r *run) span(name, request string) *telemetry.Span {
	return r.tracer.StartSpan(name).SetRequest(request)
}

// buildDir holds everything the benchmark writes inside the checkout.
func (r *run) buildDir(parts ...string) string {
	return filepath.Join(append([]string{r.root, ".bench_build"}, parts...)...)
}

var runners = map[string]func(*run) error{
	"paper-serve":  func(r *run) error { return r.serving(paperServe) },
	"light-mixed":  func(r *run) error { return r.serving(lightMixed) },
	"fleet-search": (*run).fleetSearch,
	"paper-repro":  (*run).paperRepro,
}

func main() {
	var (
		root     = flag.String("root", ".", "repository checkout to benchmark")
		workload = flag.String("workload", "", "paper-serve, light-mixed, fleet-search or paper-repro")
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", 20, "measured seconds per run")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced replay")
	)
	flag.Parse()
	fn, ok := runners[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload paper-serve|light-mixed|fleet-search|paper-repro, --seconds > 0 and --trace 0|1")
		os.Exit(2)
	}
	r := &run{
		root:    *root,
		seed:    *seed,
		measure: time.Duration(*seconds * float64(time.Second)),
		conns:   runtime.NumCPU(),
		res:     result{Metrics: map[string]metric{}},
	}
	var err error
	if *trace == 1 {
		r.tracer = telemetry.NewTracer(1 << 17)
		err = r.traced(*workload)
	} else {
		err = fn(r)
	}
	if err == nil && r.tracer != nil {
		err = r.writeSpans(*workload)
	}
	if err == nil {
		err = r.finite()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, m := range r.mismatch {
		fmt.Fprintln(os.Stderr, "perfbench: wrong output:", m)
	}
	r.res.Correct = r.res.Failed == 0 && r.res.Attempted > 0
	line, err := json.Marshal(r.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// finite rejects a result the JSON encoder cannot carry.
func (r *run) finite() error {
	for name, m := range r.res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	if r.res.Attempted == 0 {
		return errors.New("no operation was attempted")
	}
	return nil
}

// writeSpans dumps the recorded spans once the run has ended.
func (r *run) writeSpans(workload string) error {
	dir := r.buildDir("spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, r.seed))
	if err := telemetry.WriteJSONFile(path, telemetry.NewTraceReport("perfbench", r.tracer)); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", r.tracer.Total(), path)
	return nil
}
