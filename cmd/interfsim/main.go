// Command interfsim runs one distributed workload on the simulated
// consolidated cluster under a chosen interference configuration and
// prints its raw and normalized execution times.
//
// Examples:
//
//	interfsim -workload M.lmps -nodes 8 -interfering 2 -pressure 6
//	interfsim -workload M.milc -ec2 -nodes 32 -interfering 16 -pressure 4
//	interfsim -workload M.lesl -pressures 8,5,0,0,3,0,0,0
//	interfsim -workload M.lmps -metrics - -listen :9090
package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cli"
	"repro/internal/ec2"
	"repro/internal/fault"
	"repro/internal/measure"
	"repro/internal/report"
	"repro/internal/workloads"

	interference "repro"
)

func main() {
	run := cli.NewRun(flag.CommandLine, "interfsim", 1, "experiment seed")
	run.BindListen(flag.CommandLine)
	var (
		name        = flag.String("workload", "M.lmps", "workload name (see -list)")
		nodes       = flag.Int("nodes", 8, "nodes the application spans")
		interfering = flag.Int("interfering", 1, "nodes carrying a bubble (homogeneous mode)")
		pressure    = flag.Float64("pressure", 6, "bubble pressure 1-8 (homogeneous mode)")
		pressureCSV = flag.String("pressures", "", "comma-separated per-node pressures (heterogeneous mode)")
		useEC2      = flag.Bool("ec2", false, "use the simulated EC2 environment")
		faultsPath  = flag.String("faults", "", "JSON fault plan to inject (crashes shrink the cluster, degrades slow their host)")
		list        = flag.Bool("list", false, "list available workloads and exit")
	)
	flag.Parse()

	if *list {
		run.Listen = "" // a listing serves no plane
	}
	run.Start()
	defer run.Stop()
	fatal, logger, reg := run.Fatal, run.Logger, run.Registry

	out := report.NewReporter(os.Stdout)
	if *list {
		for _, w := range workloads.All() {
			out.KV(w.Name, "%s\tengine=%s", w.Kind, w.App.Engine)
		}
		if err := out.Flush(); err != nil {
			fatal(err)
		}
		return
	}

	w, err := workloads.ByName(*name)
	if err != nil {
		fatal(err)
	}
	var env *measure.Env
	if *useEC2 {
		env, err = ec2.NewEnv(run.Seed)
	} else {
		env, err = interference.NewPrivateClusterEnv(run.Seed)
	}
	if err != nil {
		fatal(err)
	}
	env.Telemetry = reg
	env.Tracer = run.Tracer

	// Fault plan: crashes remap the run's logical nodes onto the i-th
	// surviving host, degrades slow their host, and transient profiling
	// failures are retried a few times before giving up. Time-armed
	// faults (at > 0) need the round-driven daemon; a batch run only
	// activates the round-0 plan.
	var inj *fault.Injector
	survivingHosts := env.Cluster.NumHosts
	if *faultsPath != "" {
		plan, lerr := fault.LoadPlan(*faultsPath)
		if lerr != nil {
			fatal(lerr)
		}
		inj, lerr = fault.New(plan, reg)
		if lerr != nil {
			fatal(lerr)
		}
		inj.OnEvent = func(f fault.Fault) {
			logger.Warn("fault injected", "kind", f.Kind.String(), "host", f.Host,
				"factor", f.Factor, "rate", f.Rate)
		}
		inj.Activate(0)
		env.FailureHook = inj.FailureHook
		if downs := inj.DownHosts(); len(downs) > 0 {
			surviving := make([]int, 0, env.Cluster.NumHosts)
			for h := 0; h < env.Cluster.NumHosts; h++ {
				if !inj.IsDown(h) {
					surviving = append(surviving, h)
				}
			}
			survivingHosts = len(surviving)
			env.HostDegrade = func(node int) float64 {
				if node < 0 || node >= len(surviving) {
					return 1
				}
				return inj.DegradeFactor(surviving[node])
			}
		} else {
			env.HostDegrade = inj.DegradeFactor
		}
	}
	run.SetReady()

	var pressures []float64
	if *pressureCSV != "" {
		for _, tok := range strings.Split(*pressureCSV, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
			if err != nil {
				fatal(fmt.Errorf("bad pressure %q: %w", tok, err))
			}
			pressures = append(pressures, v)
		}
	} else {
		pressures, err = measure.HomogeneousPressures(*nodes, *interfering, *pressure)
		if err != nil {
			fatal(err)
		}
	}

	if len(pressures) > survivingHosts {
		fatal(fmt.Errorf("workload spans %d nodes but only %d hosts survive the fault plan",
			len(pressures), survivingHosts))
	}

	raw, err := runRetrying(inj, logger, func() (float64, error) { return env.RunWithBubbles(w, pressures) })
	if err != nil {
		fatal(err)
	}
	solo, err := runRetrying(inj, logger, func() (float64, error) { return env.Solo(w, len(pressures)) })
	if err != nil {
		fatal(err)
	}
	out.KV("workload", "%s (%s, engine %s)", w.Name, w.Kind, w.App.Engine)
	out.KV("nodes", "%d", len(pressures))
	out.KV("pressures", "%v", pressures)
	out.KV("solo", "%.3f s", solo)
	out.KV("interfered", "%.3f s", raw)
	out.KV("normalized", "%.4f", raw/solo)
	if inj != nil {
		counts := inj.Counts()
		kinds := make([]string, 0, len(counts))
		for k := range counts {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			out.KV("fault/"+k, "%d", counts[k])
		}
	}

	run.Emit()
	if err := out.Flush(); err != nil {
		fatal(err)
	}
}

// runRetrying runs one measurement, retrying transient injected
// profiling failures a few times before surfacing the error.
func runRetrying(inj *fault.Injector, logger *slog.Logger, run func() (float64, error)) (float64, error) {
	const attempts = 5
	v, err := run()
	for i := 1; err != nil && inj != nil && i < attempts; i++ {
		var te *fault.TransientError
		if !errors.As(err, &te) {
			break
		}
		logger.Warn("transient profiling failure; retrying", "op", te.Op, "attempt", i)
		v, err = run()
	}
	return v, err
}
