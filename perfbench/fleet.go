package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/measure"
	"repro/internal/placement"
	"repro/internal/workloads"
)

const (
	fleetApps      = 1000
	fleetUnits     = 4
	fleetCellIters = 200  // annealing steps per cell
	fleetExchange  = 2000 // cross-cell exchange proposals
	fleetSetups    = 3    // fleet set-ups whose median is setup_s
	modelSamples   = 15   // heterogeneity samples per model build (cmd/interfd's default)
	rescoreEvery   = 32   // searches per from-scratch re-score (two consecutive, with and without down hosts)
	fleetWindow    = 100  // searches per window of the windowed p99 and rate
)

// fleetSpec is the 5000-host, 3-class fleet of BenchmarkFleetSearch.
func fleetSpec() fleet.Spec {
	return fleet.Spec{
		Name:         "bench",
		TotalHosts:   5000,
		SlotsPerHost: 2,
		Templates: []fleet.Template{
			{Name: "core", Weight: 70},
			{Name: "burst", Weight: 20, DegradeFactor: 1.2, StartupRounds: 4},
			{Name: "legacy", Weight: 10, Capacity: 0.8, DegradeFactor: 1.5},
		},
	}
}

// fleetInputs is one fleet-search problem on a generated fleet: a request
// whose 1000 apps each take the profiled model and bubble score of one of
// the paper's 12 distributed workloads, round-robin.
type fleetInputs struct {
	req  placement.Request
	down []int // hosts still starting at round 0
}

// buildModels profiles workloads the way cmd/interfd does at startup and
// returns the models with each build's wall time in ms.
func buildModels(seed int64, names []string) (map[string]*core.Model, []float64, error) {
	env, err := measure.NewEnv(cluster.Default(), seed)
	if err != nil {
		return nil, nil, err
	}
	env.Cache = measure.NewCache()
	cfg := core.DefaultBuildConfig()
	cfg.Samples = modelSamples
	cfg.Seed = seed
	models := map[string]*core.Model{}
	var times []float64
	for _, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		m, err := core.BuildModel(env, w, cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("model for %s: %w", name, err)
		}
		times = append(times, ms(time.Since(t0)))
		models[name] = m
	}
	return models, times, nil
}

func distributedNames() []string {
	var names []string
	for _, w := range workloads.DistributedAll() {
		names = append(names, w.Name)
	}
	return names
}

// fleetSetup generates the fleet and builds the models.
func (r *run) fleetSetup() (fleetInputs, error) {
	f, err := fleet.Generate(fleetSpec(), r.seed)
	if err != nil {
		return fleetInputs{}, err
	}
	names := distributedNames()
	models, _, err := buildModels(r.seed, names)
	if err != nil {
		return fleetInputs{}, err
	}
	in := fleetInputs{down: f.DownAt(0)}
	in.req = placement.Request{
		NumHosts:     len(f.Hosts),
		SlotsPerHost: f.Spec.SlotsPerHost,
		Predictors:   map[string]core.Predictor{},
		Scores:       map[string]float64{},
	}
	for i := 0; i < fleetApps; i++ {
		app := fmt.Sprintf("app%04d", i)
		m := models[names[i%len(names)]]
		in.req.Demands = append(in.req.Demands, cluster.Demand{App: app, Units: fleetUnits})
		in.req.Predictors[app] = m
		in.req.Scores[app] = m.BubbleScore
	}
	return in, nil
}

// fleetConfig is search i of a run: a distinct seed and, on odd searches,
// the round-0 staged-startup hosts down.
func (r *run) fleetConfig(in fleetInputs, i int) (placement.Request, placement.Config) {
	req := in.req
	if i%2 == 1 {
		req.DownHosts = in.down
	}
	return req, placement.Config{
		Iterations:      fleetCellIters,
		Restarts:        1,
		Cells:           placement.AdaptiveCells(in.req.NumHosts, r.conns),
		ExchangeIters:   fleetExchange,
		ExchangeWorkers: r.conns,
		Seed:            r.seed*seedStride + int64(i),
	}
}

// checkFleet verifies a fleet answer: every app holds exactly its units
// and no unit sits on a down host. Every rescoreEvery-th answer is also
// re-scored from scratch through placement.Evaluate, which must reproduce
// its objective and QoS verdict exactly (the from-scratch oracle costs
// about ten searches, so it is sampled).
func checkFleet(req placement.Request, cfg placement.Config, res placement.Result, rescore bool) error {
	p := res.Placement
	if p == nil || p.NumHosts != req.NumHosts {
		return fmt.Errorf("search %d: no placement of %d hosts", cfg.Seed, req.NumHosts)
	}
	down := map[int]bool{}
	for _, h := range req.DownHosts {
		down[h] = true
	}
	units := map[string]int{}
	for h := 0; h < p.NumHosts; h++ {
		for s := 0; s < p.HostSlots; s++ {
			app := p.At(h, s)
			if app == "" {
				continue
			}
			if down[h] {
				return fmt.Errorf("search %d: %s placed on down host %d", cfg.Seed, app, h)
			}
			units[app]++
		}
	}
	if len(units) != len(req.Demands) {
		return fmt.Errorf("search %d: placement holds %d apps, request has %d", cfg.Seed, len(units), len(req.Demands))
	}
	for _, d := range req.Demands {
		if units[d.App] != d.Units {
			return fmt.Errorf("search %d: %s placed %d units, wants %d", cfg.Seed, d.App, units[d.App], d.Units)
		}
	}
	if !rescore {
		return nil
	}
	ev, err := placement.Evaluate(p, req, cfg.QoS)
	if err != nil {
		return fmt.Errorf("search %d: re-score: %w", cfg.Seed, err)
	}
	if ev.Objective != res.Objective || ev.QoSSatisfied != res.QoSSatisfied {
		return fmt.Errorf("search %d: objective %v (QoS %v), re-scored %v (QoS %v)",
			cfg.Seed, res.Objective, res.QoSSatisfied, ev.Objective, ev.QoSSatisfied)
	}
	return nil
}

// fleetSearch is the in-process, closed-loop fleet workload: searches run
// back to back from one caller until the measured time is spent.
func (r *run) fleetSearch() error {
	var in fleetInputs
	setup, err := medianOf(fleetSetups, func() (err error) {
		in, err = r.fleetSetup()
		return err
	})
	if err != nil {
		return err
	}
	var times, objectives []float64
	deadline := time.Now().Add(r.measure)
	for i := 0; time.Now().Before(deadline) || i < 2; i++ {
		req, cfg := r.fleetConfig(in, i)
		t0 := time.Now()
		res, err := placement.Search(req, cfg)
		d := time.Since(t0)
		if err != nil {
			r.wrong("search %d: %v", cfg.Seed, err)
			continue
		}
		if err := checkFleet(req, cfg, res, i%rescoreEvery < 2); err != nil {
			r.wrong("%v", err)
			continue
		}
		r.op(false)
		times = append(times, ms(d))
		objectives = append(objectives, res.Objective)
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: fleet-search: %d searches, %d cells, p50=%.3fms\n",
		len(times), placement.AdaptiveCells(in.req.NumHosts, r.conns), quantile(times, 0.5))
	r.put("setup_s", setup, "s")
	r.put("p50_ms", quantile(times, 0.5), "ms")
	r.put("p99_ms", windowMedian(times, fleetWindow, p99), "ms")
	r.put("slo_rps", windowMedian(times, fleetWindow, opsPerSec), "1/s")
	r.put("objective_mean", mean(objectives), "norm_time")
	r.put("peak_rss_mb", rss, "MB")
	if len(times) == 0 {
		return fmt.Errorf("fleet-search: no correct search")
	}
	return nil
}
