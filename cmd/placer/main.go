// Command placer runs the interference-aware placement search for a mix
// of four applications on the 8-host cluster, optionally with a QoS
// constraint, and verifies the chosen placement on the simulator.
//
// Examples:
//
//	placer -apps M.milc,C.libq,H.KM,M.lmps
//	placer -apps M.lmps,C.libq,H.KM,N.cg -qos M.lmps -bound 1.25
//	placer -apps M.milc,C.libq,H.KM,M.lmps -goal worst
//	placer -apps M.milc,C.libq,H.KM,M.lmps -metrics - -trace - -listen :9090
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/placement"
	"repro/internal/report"
	"repro/internal/telemetry"
	"repro/internal/workloads"

	interference "repro"
)

func main() {
	run := cli.NewRun(flag.CommandLine, "placer", 1, "experiment seed")
	run.BindListen(flag.CommandLine)
	search := cli.Search{Iters: 4000}
	search.Bind(flag.CommandLine, "")
	var (
		appsCSV = flag.String("apps", "M.milc,C.libq,H.KM,M.lmps", "comma-separated mix of 4 workloads")
		qosApp  = flag.String("qos", "", "application to protect with a QoS constraint")
		bound   = flag.Float64("bound", 1.25, "QoS bound on normalized execution time")
		goal    = flag.String("goal", "best", "search goal: best or worst")
		units   = flag.Int("units", 4, "units per application")
		naive   = flag.Bool("naive", false, "drive the search with the naive proportional model")
	)
	flag.Parse()

	run.Start()
	defer run.Stop()
	fatal, logger, reg, tracer := run.Fatal, run.Logger, run.Registry, run.Tracer
	out := report.NewReporter(os.Stdout)

	names := strings.Split(*appsCSV, ",")
	env, err := interference.NewPrivateClusterEnv(run.Seed)
	if err != nil {
		fatal(err)
	}
	env.Telemetry = reg
	env.Tracer = tracer

	preds := map[string]interference.Predictor{}
	scores := map[string]float64{}
	wreg := map[string]workloads.Workload{}
	var demands []interference.Demand
	counts := map[string]int{}
	cfg := interference.DefaultBuildConfig()
	cfg.Seed = run.Seed
	cfg.Telemetry = reg
	cfg.Tracer = tracer
	for _, raw := range names {
		base := strings.TrimSpace(raw)
		w, err := interference.WorkloadByName(base)
		if err != nil {
			fatal(err)
		}
		counts[base]++
		alias := base
		if counts[base] > 1 {
			alias = fmt.Sprintf("%s(%d)", base, counts[base])
			w.Name = alias
			w.App.Name = alias
		}
		logger.Info("profiling workload", "workload", base, "alias", alias, "naive", *naive)
		var pred interference.Predictor
		var score float64
		if *naive {
			nm, err := interference.BuildNaiveModel(env, w, *units)
			if err != nil {
				fatal(err)
			}
			pred, score = nm, nm.BubbleScore
		} else {
			m, err := interference.BuildModel(env, w, cfg)
			if err != nil {
				fatal(err)
			}
			pred, score = m, m.BubbleScore
		}
		preds[alias] = pred
		scores[alias] = score
		wreg[alias] = w
		demands = append(demands, interference.Demand{App: alias, Units: *units})
	}
	run.SetReady()

	req := interference.PlacementRequest{
		NumHosts: 8, SlotsPerHost: 2,
		Demands: demands, Predictors: preds, Scores: scores,
	}
	pcfg := interference.DefaultPlacementConfig(run.Seed)
	search.Apply(&pcfg, req.NumHosts)
	pcfg.Telemetry = reg
	pcfg.Tracer = tracer
	pcfg.OnProgress = func(s placement.ProgressSample) {
		if s.Step%25 != 0 {
			return
		}
		if data, err := json.Marshal(s); err == nil {
			run.Bus.Publish("placement_sample", data)
		}
	}
	switch *goal {
	case "best":
		pcfg.Goal = placement.Best
	case "worst":
		pcfg.Goal = placement.Worst
	default:
		fatal(fmt.Errorf("unknown goal %q", *goal))
	}
	if *qosApp != "" {
		pcfg.QoS = &interference.QoS{App: *qosApp, MaxNormalized: *bound}
	}
	res, err := interference.SearchPlacement(req, pcfg)
	if err != nil {
		fatal(err)
	}
	cluster.RecordOccupancy(reg, res.Placement)
	logger.Info("placement chosen", "objective", res.Objective, "evaluations", res.Evaluations)

	out.KV("placement", "%s", res.Placement)
	out.KV("objective", "%.4f (weighted normalized runtime, model)", res.Objective)
	if pcfg.QoS != nil {
		out.KV("QoS (model)", "%s <= %.2f: %v", *qosApp, *bound, res.QoSSatisfied)
	}
	out.KV("evaluations", "%d", res.Evaluations)
	out.Blank()

	outs, err := env.RunPlacement(res.Placement, wreg)
	if err != nil {
		fatal(err)
	}
	tb := report.NewTable("Simulated outcome of the chosen placement",
		"app", "predicted", "simulated", "units")
	var appNames []string
	for a := range outs {
		appNames = append(appNames, a)
	}
	sort.Strings(appNames)
	for _, a := range appNames {
		reg.Gauge(telemetry.Label("app_predicted_normalized", "app", a)).Set(res.Predicted[a])
		tb.MustAddRow(a, report.Norm(res.Predicted[a]), report.Norm(outs[a].Normalized),
			fmt.Sprint(res.Placement.UnitsOf(a)))
	}
	out.Table(tb)

	run.Emit()
	if err := out.Flush(); err != nil {
		fatal(err)
	}
}
