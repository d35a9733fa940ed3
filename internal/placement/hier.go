// The fleet-scale hierarchical search behind Config.Cells. A
// thousand-app request over thousands of hosts makes the flat swap loop's
// proposal space enormous, so the hierarchical path shards the hosts into
// contiguous cells (cluster.Partition), spreads the demands across cells
// by free capacity, anneals each cell independently with the existing
// restart engine, merges the cell placements in cell order, and then runs
// a serial cross-cell exchange phase over the merged placement through
// the same incremental delta/undo machinery (incEval) the flat search
// uses. The exchange stays serial on purpose: nearly half its time is
// the full-sum objective, which must run in commit order to stay
// bit-identical, so parallel speculation measured slower than the
// serial loop at every fleet scale (docs/PERFORMANCE.md).
//
// Determinism: the demand spread is greedy with lowest-cell-index
// tie-breaks, each cell's sub-search seed derives from
// Stream("cells").StreamN("cell", c), the merge walks cells in index
// order regardless of goroutine finish order, and the exchange phase
// draws from its own Stream("exchange") — the whole search is a pure
// function of (Request, Config).
//
// Exactness: during the cell phase an application split across cells is
// scored cell-locally (each sub-search only sees the units in its cell),
// but the exchange phase re-predicts the merged placement globally
// before its first proposal, so the returned Objective/Predicted are
// exact full-cluster model evaluations, identical in meaning to the flat
// search's.
//
// The three phases carry runtime/pprof labels (placement_phase =
// spread / cells / exchange, inherited by the goroutines each phase
// spawns), so a CPU or heap profile of a fleet search attributes cost
// per phase directly — scripts/profile.sh captures one.

package placement

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"
	"sync"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// cellOutcome is one cell's sub-search result.
type cellOutcome struct {
	res Result
	ran bool
	err error
}

// searchHierarchical runs the cell-sharded search. Callers (Search) have
// already validated the request, applied config defaults, and checked
// the cell/exchange knobs; cfg.Cells is > 1 here.
func searchHierarchical(req Request, cfg Config, sign float64) (Result, error) {
	ctx := context.Background()
	cells := cluster.Partition(req.NumHosts, cfg.Cells)
	if err := cluster.CheckPartition(req.NumHosts, cells); err != nil {
		return Result{}, err
	}
	down := req.downSet()

	var asg [][]cluster.Demand
	var err error
	pprof.Do(ctx, pprof.Labels("placement_phase", "spread"), func(context.Context) {
		asg, err = assignDemands(req, cells, down)
	})
	if err != nil {
		return Result{}, err
	}

	// Derive every cell's seed serially before spawning, then run the
	// sub-searches one goroutine each; outs is indexed by cell so the
	// merge below is independent of completion order.
	seeder := sim.NewRNG(cfg.Seed).Stream("cells")
	seeds := make([]int64, len(cells))
	for c := range cells {
		seeds[c] = seeder.StreamN("cell", c).Seed()
	}
	outs := make([]cellOutcome, len(cells))
	pprof.Do(ctx, pprof.Labels("placement_phase", "cells"), func(context.Context) {
		var wg sync.WaitGroup
		for c := range cells {
			if len(asg[c]) == 0 {
				continue
			}
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				outs[c].ran = true
				outs[c].res, outs[c].err = searchCell(req, cfg, cells[c], asg[c], down, seeds[c])
			}(c)
		}
		wg.Wait()
	})

	merged, err := cluster.NewPlacementLimit(req.NumHosts, req.SlotsPerHost, req.AppsPerHostLimit)
	if err != nil {
		return Result{}, err
	}
	evals := 0
	var chits, cmisses uint64
	for c := range cells {
		if !outs[c].ran {
			continue
		}
		if outs[c].err != nil {
			return Result{}, fmt.Errorf("placement: cell %d: %w", c, outs[c].err)
		}
		evals += outs[c].res.Evaluations
		chits += outs[c].res.CombineHits
		cmisses += outs[c].res.CombineMisses
		sp := outs[c].res.Placement
		for i, gh := range cells[c] {
			for s := 0; s < req.SlotsPerHost; s++ {
				if a := sp.At(i, s); a != "" {
					if err := merged.Set(gh, s, a); err != nil {
						return Result{}, err
					}
				}
			}
		}
	}

	var best Result
	var exOut exchangeOutcome
	pprof.Do(ctx, pprof.Labels("placement_phase", "exchange"), func(context.Context) {
		best, exOut, err = exchangePhase(merged, req, cfg, sign, cells, down)
	})
	if err != nil {
		return Result{}, err
	}
	best.Evaluations = evals + exOut.evals
	best.CombineHits = chits + exOut.chits
	best.CombineMisses = cmisses + exOut.cmisses

	if cfg.Telemetry != nil {
		cfg.Telemetry.Gauge(MetricCells).Set(float64(len(cells)))
		cfg.Telemetry.Counter(MetricExchangeProposals).Add(exOut.proposals)
		cfg.Telemetry.Counter(MetricExchangeAccepted).Add(exOut.accepted)
		// The serial phase never conflicts and every evaluation is
		// authoritative: 0 conflicts, occupancy 1.
		cfg.Telemetry.Counter(MetricExchangeConflicts).Add(0)
		cfg.Telemetry.Gauge(MetricExchangeBatchOccupancy).Set(1)
		cfg.Telemetry.Counter(MetricProposals).Add(exOut.proposals)
		cfg.Telemetry.Counter(MetricAccepted).Add(exOut.accepted)
		cfg.Telemetry.Counter(MetricRejected).Add(exOut.rejected)
		cfg.Telemetry.Counter(MetricInvalid).Add(exOut.invalid)
		cfg.Telemetry.Counter(MetricEvaluations).Add(uint64(best.Evaluations))
		cfg.Telemetry.Counter(MetricPredCacheHits).Add(exOut.hits)
		cfg.Telemetry.Counter(MetricPredCacheMisses).Add(exOut.misses)
		cfg.Telemetry.Counter(MetricPredCacheCombineHits).Add(exOut.chits)
		cfg.Telemetry.Counter(MetricPredCacheCombineMisses).Add(exOut.cmisses)
		cfg.Telemetry.Gauge(MetricBestObjective).Set(best.Objective)
		cfg.Telemetry.Gauge(MetricFinalTemp).Set(exOut.finalTemp)
	}
	return best, nil
}

// assignDemands spreads the request's demands across cells: each demand
// goes to the cell with the most remaining free capacity (ties to the
// lowest cell index), splitting a demand across cells when no single
// cell can hold it. Down hosts contribute no capacity. The request-level
// validation already guarantees total units fit the surviving slots, so
// the spread always succeeds.
func assignDemands(req Request, cells [][]int, down map[int]bool) ([][]cluster.Demand, error) {
	free := make([]int, len(cells))
	for c, hs := range cells {
		up := 0
		for _, h := range hs {
			if !down[h] {
				up++
			}
		}
		free[c] = up * req.SlotsPerHost
	}
	out := make([][]cluster.Demand, len(cells))
	// Pre-size each cell's demand list for the even-spread common case
	// (one extra slot absorbs a split) — the greedy loop then appends
	// without regrowing.
	per := len(req.Demands)/len(cells) + 2
	for c := range out {
		out[c] = make([]cluster.Demand, 0, per)
	}
	for _, d := range req.Demands {
		units := d.Units
		for units > 0 {
			best := -1
			for c := range free {
				if free[c] > 0 && (best < 0 || free[c] > free[best]) {
					best = c
				}
			}
			if best < 0 {
				return nil, fmt.Errorf("placement: no cell capacity left for %q", d.App)
			}
			take := units
			if take > free[best] {
				take = free[best]
			}
			out[best] = append(out[best], cluster.Demand{App: d.App, Units: take})
			free[best] -= take
			units -= take
		}
	}
	return out, nil
}

// searchCell runs the flat search on one cell's slice of the cluster.
// Local host index i maps to global host hosts[i]; the shared predictor
// and score maps are read-only and passed through as-is.
func searchCell(req Request, cfg Config, hosts []int, demands []cluster.Demand, down map[int]bool, seed int64) (Result, error) {
	var subDown []int
	for i, h := range hosts {
		if down[h] {
			subDown = append(subDown, i)
		}
	}
	sub := Request{
		NumHosts:         len(hosts),
		SlotsPerHost:     req.SlotsPerHost,
		AppsPerHostLimit: req.AppsPerHostLimit,
		Demands:          demands,
		Predictors:       req.Predictors,
		Scores:           req.Scores,
		DownHosts:        subDown,
	}
	scfg := Config{
		Iterations: cfg.Iterations,
		InitTemp:   cfg.InitTemp,
		CoolRate:   cfg.CoolRate,
		Seed:       seed,
		Goal:       cfg.Goal,
		Method:     cfg.Method,
		Restarts:   cfg.Restarts,
		Tracer:     cfg.Tracer,
	}
	// The QoS constraint only applies in the cell actually holding the
	// constrained app's units (Search rejects a QoS app absent from the
	// demands). Feasibility is re-checked globally by the exchange phase.
	if cfg.QoS != nil {
		for _, d := range demands {
			if d.App == cfg.QoS.App {
				scfg.QoS = cfg.QoS
				break
			}
		}
	}
	return Search(sub, scfg)
}

// exchangeOutcome carries the exchange phase's counters.
type exchangeOutcome struct {
	evals     int
	proposals uint64
	accepted  uint64
	rejected  uint64
	invalid   uint64
	hits      uint64
	misses    uint64
	chits     uint64
	cmisses   uint64
	finalTemp float64
}

// exchangePhase anneals cross-cell swaps over the merged placement. Each
// proposal picks two distinct cells, a random slot in each, and swaps
// them through the incremental evaluator — the same apply/undo machinery
// as runRestart, with the proposal distribution restricted to pairs that
// cross a cell boundary (within-cell pairs were already annealed by the
// cell phase). The draw discipline (geometry and acceptance uniforms
// interleaved on one Stream("exchange")) is pinned by golden digests:
// this serial phase must stay bit-identical across engine rework.
func exchangePhase(cur *cluster.Placement, req Request, cfg Config, sign float64, cells [][]int, down map[int]bool) (Result, exchangeOutcome, error) {
	var o exchangeOutcome
	e, err := newIncEval(cur, req, cfg.QoS)
	if err != nil {
		return Result{}, o, err
	}
	o.evals++
	curObj := e.objective(e.pred)
	curEnergy := e.energy(curObj, e.pred)

	var bs bestState
	consider := func(obj float64) {
		qosOK := cfg.QoS == nil || e.qosValue() <= cfg.QoS.MaxNormalized
		if !bs.have || betterSnap(cfg.QoS != nil, sign, bestSnap{obj: obj, qosOK: qosOK}, bs.snap()) {
			bs.note(e, obj, qosOK)
		}
	}
	consider(curObj)

	iters := cfg.ExchangeIters
	if iters <= 0 {
		iters = cfg.Iterations
	}
	r := sim.NewRNG(cfg.Seed).Stream("exchange")
	span := cfg.Tracer.StartSpan("placement.exchange")
	defer span.End()
	temp := cfg.InitTemp
	cool := math.Pow(1e-3, 1/float64(iters))
	for it := 0; it < iters; it++ {
		temp *= cool
		ca := r.Intn(len(cells))
		cb := r.Intn(len(cells))
		if ca == cb {
			continue
		}
		ha := cells[ca][r.Intn(len(cells[ca]))]
		hb := cells[cb][r.Intn(len(cells[cb]))]
		sa := r.Intn(req.SlotsPerHost)
		sb := r.Intn(req.SlotsPerHost)
		if len(down) > 0 && (down[ha] || down[hb]) {
			o.invalid++
			continue
		}
		if cur.At(ha, sa) == cur.At(hb, sb) {
			continue
		}
		if err := cur.Swap(ha, sa, hb, sb); err != nil {
			return Result{}, o, err
		}
		if cur.ValidateHosts(ha, hb) != nil {
			o.invalid++
			if err := cur.Swap(ha, sa, hb, sb); err != nil { // undo
				return Result{}, o, err
			}
			continue
		}
		candObj, candEnergy, err := e.evalSwapped(ha, sa, hb, sb)
		if err != nil {
			return Result{}, o, err
		}
		o.evals++
		o.proposals++
		delta := sign * (candEnergy - curEnergy)
		accept := delta <= 0
		if !accept && cfg.Method == Anneal {
			accept = r.Float64() < math.Exp(-delta/math.Max(temp, 1e-9))
		}
		if accept {
			o.accepted++
			e.accept()
			curObj, curEnergy = candObj, candEnergy
			consider(curObj)
		} else {
			o.rejected++
			e.reject()
			if err := cur.Swap(ha, sa, hb, sb); err != nil { // undo
				return Result{}, o, err
			}
		}
	}
	o.finalTemp = temp
	o.hits, o.misses = e.cache.Stats()
	o.chits, o.cmisses = e.cache.CombineStats()
	e.release()
	best, err := bs.materialize(req.AppsPerHostLimit)
	if err != nil {
		return Result{}, o, err
	}
	return best, o, nil
}
