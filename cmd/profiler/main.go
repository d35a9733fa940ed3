// Command profiler builds the full interference model of one workload —
// propagation matrix, heterogeneity mapping policy, and bubble score — and
// prints it, together with the profiling cost the chosen algorithm paid
// and the provenance of every matrix cell (measured, interpolated, or
// inferred).
//
// Examples:
//
//	profiler -workload M.milc -alg binary-optimized -samples 60
//	profiler -workload M.milc -metrics - -trace - -listen :9090
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bubble"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/hetero"
	"repro/internal/measure"
	"repro/internal/report"

	interference "repro"
)

func main() {
	run := cli.NewRun(flag.CommandLine, "profiler", 1, "experiment seed")
	run.BindListen(flag.CommandLine)
	run.BindMeasure(flag.CommandLine)
	var (
		name    = flag.String("workload", "M.milc", "workload name")
		algName = flag.String("alg", "binary-optimized", "profiling algorithm: binary-optimized, binary-brute, full-brute, random-30%, random-50%")
		samples = flag.Int("samples", 60, "heterogeneous samples for policy selection")
		nodes   = flag.Int("nodes", 8, "nodes the application spans while profiled")
	)
	flag.Parse()

	run.Start()
	defer run.Stop()
	fatal, logger := run.Fatal, run.Logger
	out := report.NewReporter(os.Stdout)

	alg, err := parseAlg(*algName)
	if err != nil {
		fatal(err)
	}
	env, err := interference.NewPrivateClusterEnv(run.Seed)
	if err != nil {
		fatal(err)
	}
	env.Telemetry = run.Registry
	env.Tracer = run.Tracer
	env.Workers = run.Workers
	cache := measure.NewCache()
	env.Cache = cache
	run.LoadCache(cache)
	w, err := interference.WorkloadByName(*name)
	if err != nil {
		fatal(err)
	}
	cfg := interference.DefaultBuildConfig()
	cfg.Algorithm = alg
	cfg.Samples = *samples
	cfg.Nodes = *nodes
	cfg.Seed = run.Seed
	cfg.Telemetry = run.Registry
	cfg.Tracer = run.Tracer
	logger.Info("building interference model", "workload", w.Name, "alg", alg.String(), "samples", *samples)
	model, err := interference.BuildModel(env, w, cfg)
	if err != nil {
		fatal(err)
	}
	run.SetReady()
	logger.Info("model built", "workload", model.Workload,
		"bubble_score", model.BubbleScore, "policy", model.Policy.String())
	run.SaveCache(cache)

	out.KV("workload", "%s", model.Workload)
	out.KV("bubble score", "%.2f (paper: %.1f)", model.BubbleScore, w.TargetBubbleScore)
	out.KV("best policy", "%s (avg err %.2f%%, std %.2f)",
		model.Policy, model.Selection.BestStats.AvgPct, model.Selection.BestStats.StdPct)
	out.KV("profiling cost", "%.1f%% of settings (%s)", model.ProfilingCostPct, alg)
	pc := model.Matrix.ProvenanceCounts()
	out.KV("cell provenance", "measured %d, interpolated %d, inferred %d",
		pc["measured"], pc["interpolated"], pc["inferred"])
	out.Blank()

	headers := []string{"pressure \\ nodes"}
	for j := 0; j <= *nodes; j++ {
		headers = append(headers, fmt.Sprint(j))
	}
	tb := report.NewTable("Propagation matrix (normalized execution time)", headers...)
	for i := 0; i < bubble.MaxPressure; i++ {
		row := []string{fmt.Sprint(i + 1)}
		for j := 0; j <= *nodes; j++ {
			row = append(row, report.Norm(model.Matrix.Cell(i, j)))
		}
		tb.MustAddRow(row...)
	}
	out.Table(tb)
	out.Blank()

	pol := report.NewTable("Heterogeneity policy errors over sampled configurations",
		"policy", "avg(%)", "std", "min(%)", "max(%)")
	for _, p := range hetero.AllPolicies() {
		st := model.Selection.Stats[p]
		pol.MustAddRow(p.String(), report.F(st.AvgPct, 2), report.F(st.StdPct, 2),
			report.F(st.MinPct, 2), report.F(st.MaxPct, 2))
	}
	out.Table(pol)

	run.Emit()
	if err := out.Flush(); err != nil {
		fatal(err)
	}
}

func parseAlg(s string) (core.Algorithm, error) {
	for _, a := range []core.Algorithm{
		core.BinaryOptimized, core.BinaryBrute, core.FullBrute, core.Random30, core.Random50,
	} {
		if a.String() == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("unknown algorithm %q", s)
}
