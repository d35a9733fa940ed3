package main

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/measure"
	"repro/internal/placement"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// The traced run reports every per-layer metric. It replays inputs rung
// by rung down the ladder, timing each layer from outside by calling that
// layer's public function on the same inputs, so a rung's self time is its
// time minus the rung below on the same requests:
//
//	HTTP round trip -> serve.Service.Place/WhatIf -> placement.Search/Evaluate -> core predictor
//	placement.Search (cells + exchange) -> cells phase alone -> core predictor   (fleet)
//	paper regeneration -> each experiments runner                                (repro)
//
// Every traced run covers the whole ladder: the serving rungs replay the
// workload's own requests on the serving workloads and paper-serve's
// requests otherwise; the fleet and repro rungs replay their workloads'
// inputs. trace_overhead_ratio compares the workload's own operation with
// and without tracing, in the same run.

const (
	ladderRequests = 300 // requests replayed rung by rung
	ladderWarmup   = 100 // requests that warm the in-process caches first
	overheadChunk  = 400 // open-loop requests per traced/untraced chunk
	overheadChunks = 6   // alternating chunks
	fleetLadder    = 12  // fleet searches decomposed into cells + exchange
	fleetCounted   = 4   // fleet searches replayed with counters attached
	recordCap      = 1e5 // pressure vectors kept for the predictor replay
	replayPasses   = 3   // predictor replay passes (median)
	fleetGens      = 5   // fleet generations (median)
)

func (r *run) traced(workload string) error {
	mode := paperServe
	if workload == lightMixed.name {
		mode = lightMixed
	}
	servingOwn := workload == paperServe.name || workload == lightMixed.name
	if err := r.tracedServing(mode, servingOwn); err != nil {
		return err
	}
	if err := r.tracedFleet(workload == "fleet-search"); err != nil {
		return err
	}
	return r.tracedRepro(workload == "paper-repro")
}

// recorder counts the predictor calls that reach it — every cache above
// it missed — and keeps their pressure vectors for replay.
type recorder struct {
	mu      sync.Mutex
	calls   int
	vectors []recorded
}

type recorded struct {
	pred      core.Predictor
	pressures []float64
}

type countingPredictor struct {
	inner core.Predictor
	rec   *recorder
}

func (c countingPredictor) PredictPressures(p []float64) (float64, error) {
	c.rec.mu.Lock()
	c.rec.calls++
	if len(c.rec.vectors) < recordCap {
		c.rec.vectors = append(c.rec.vectors, recorded{c.inner, append([]float64(nil), p...)})
	}
	c.rec.mu.Unlock()
	return c.inner.PredictPressures(p)
}

// wrap puts the recorder under every predictor.
func (rec *recorder) wrap(preds map[string]core.Predictor) map[string]core.Predictor {
	out := make(map[string]core.Predictor, len(preds))
	for app, p := range preds {
		out[app] = countingPredictor{inner: p, rec: rec}
	}
	return out
}

// replayNs replays the recorded vectors through the models themselves and
// returns the median, over passes, of the time per prediction.
func (rec *recorder) replayNs() (float64, error) {
	if len(rec.vectors) == 0 {
		return 0, fmt.Errorf("no predictor call was recorded")
	}
	var per []float64
	for pass := 0; pass < replayPasses; pass++ {
		t0 := time.Now()
		for _, v := range rec.vectors {
			if _, err := v.pred.PredictPressures(v.pressures); err != nil {
				return 0, err
			}
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(len(rec.vectors)))
	}
	return median(per), nil
}

// searchCounts folds a search's telemetry into running totals.
type searchCounts struct {
	evaluations, hits, misses, combHits, combMisses float64
	accepted, proposals                             float64
	toBest                                          []float64
	exProposals, exAccepted, exConflicts            float64
	occupancy                                       []float64
}

func (c *searchCounts) add(reg *telemetry.Registry) {
	snap := reg.Snapshot()
	n := func(name string) float64 { return float64(snap.Counters[name]) }
	c.evaluations += n(placement.MetricEvaluations)
	c.hits += n(placement.MetricPredCacheHits)
	c.misses += n(placement.MetricPredCacheMisses)
	c.combHits += n(placement.MetricPredCacheCombineHits)
	c.combMisses += n(placement.MetricPredCacheCombineMisses)
	c.accepted += n(placement.MetricAccepted)
	c.proposals += n(placement.MetricProposals)
	c.exProposals += n(placement.MetricExchangeProposals)
	c.exAccepted += n(placement.MetricExchangeAccepted)
	c.exConflicts += n(placement.MetricExchangeConflicts)
	if v, ok := snap.Gauges[placement.MetricExchangeBatchOccupancy]; ok {
		c.occupancy = append(c.occupancy, v)
	}
	// Iterations to best: the first step at which the best-objective trace
	// reaches its final value, as a share of the steps run.
	if pts := snap.Series[placement.SeriesBestObjective]; len(pts) > 0 {
		final := pts[len(pts)-1].Y
		for i, p := range pts {
			if p.Y == final {
				c.toBest = append(c.toBest, float64(i+1)/float64(len(pts)))
				break
			}
		}
	}
}

// servingStack is the daemon's serving path rebuilt in process on the same
// models: the service itself, and the predictors wrapped in a shared cache
// the way the service wraps them, for the bare placement rungs.
type servingStack struct {
	svc     *serve.Service
	preds   map[string]core.Predictor // raw models
	wrapped map[string]core.Predictor // behind a shared prediction cache
	scores  map[string]float64
	buildMs []float64
}

// newServingStack profiles the daemon's mix exactly as cmd/interfd does
// with its defaults (seed 1, 15 samples), so its answers equal the
// daemon's bit for bit.
func newServingStack() (*servingStack, error) {
	const daemonSeed = 1
	models, buildMs, err := buildModels(daemonSeed, daemonMix)
	if err != nil {
		return nil, err
	}
	st := &servingStack{preds: map[string]core.Predictor{}, scores: map[string]float64{}, buildMs: buildMs}
	for name, m := range models {
		st.preds[name] = m
		st.scores[name] = m.BubbleScore
	}
	st.svc, err = serve.New(serve.Config{
		NumHosts: clusterHosts, SlotsPerHost: clusterSlots, Seed: daemonSeed,
		Iterations: 600, Restarts: 1,
	})
	if err != nil {
		return nil, err
	}
	st.svc.SetBackend(serve.Backend{Predictors: st.preds, Scores: st.scores})
	st.wrapped = core.NewSharedPredictionCache().WrapAll(st.preds)
	return st, nil
}

// request is the placement request and config the service builds for req.
func (st *servingStack) request(req serve.PlaceRequest, preds map[string]core.Predictor) (placement.Request, placement.Config) {
	pr := placement.Request{NumHosts: clusterHosts, SlotsPerHost: clusterSlots, Predictors: map[string]core.Predictor{}, Scores: map[string]float64{}}
	for _, a := range req.Apps {
		pr.Demands = append(pr.Demands, cluster.Demand{App: a.App, Units: a.Units})
		pr.Predictors[a.App] = preds[a.App]
		pr.Scores[a.App] = st.scores[a.App]
	}
	cfg := placement.Config{Iterations: 600, Restarts: 1, Seed: req.Seed}
	if req.Iterations > 0 {
		cfg.Iterations = req.Iterations
	}
	if req.QoSApp != "" {
		cfg.QoS = &placement.QoS{App: req.QoSApp, MaxNormalized: req.QoSMax}
	}
	return pr, cfg
}

// rungTimes collects one rung's per-request times in ms.
type rungTimes map[string][]float64

func (rt rungTimes) add(name string, d time.Duration) { rt[name] = append(rt[name], ms(d)) }

func (rt rungTimes) merge(o rungTimes) {
	for name, v := range o {
		rt[name] = append(rt[name], v...)
	}
}

// self is the median over requests of rung a's time minus rung b's.
func (rt rungTimes) self(a, b string) float64 {
	var d []float64
	for i := range rt[a] {
		d = append(d, rt[a][i]-rt[b][i])
	}
	return median(d)
}

// timed runs fn inside a child span and returns its wall time.
func timed(parent *telemetry.Span, name string, fn func() error) (time.Duration, error) {
	sp := parent.StartChild(name)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	sp.End()
	return d, err
}

func (r *run) tracedServing(mode servingMode, own bool) error {
	s, err := r.openSession(mode)
	if err != nil {
		return err
	}
	defer s.close()

	// Open-loop chunks at the nominal rate, alternately untraced and
	// traced, for the generator lateness, the transport counts and the
	// daemon's own queue/batch/cache figures.
	var plain, withSpans, late []float64
	requests, bytes := 0, 0
	for i := 0; i < overheadChunks; i++ {
		traced := i%2 == 1
		ph := r.runPhase(s.c, s.g.trace(overheadChunk, mode.nominalRPS), mode.nominalRPS, traced, 0)
		requests += len(ph.latencies)
		bytes += ph.bytes
		if traced {
			withSpans = append(withSpans, ph.latencies...)
		} else {
			plain = append(plain, ph.latencies...)
			late = append(late, ph.lateness...)
		}
	}
	r.put("gen_late_p99_ms", quantile(late, 0.99), "ms")
	r.put("http.resp_bytes", float64(bytes)/float64(requests), "bytes")
	r.put("http.conns_per_1k", float64(s.c.dials.Load())*1000/float64(s.c.sent.Load()), "count")
	if own {
		r.put("trace_overhead_ratio", median(withSpans)/median(plain), "ratio")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	prom, err := s.d.scrape(ctx)
	if err != nil {
		return err
	}
	batches := prom["serve_batches_total"]
	hits, misses := prom["serve_pred_cache_hits_total"], prom["serve_pred_cache_misses_total"]
	r.put("serve.queue_wait_p50_ms", prom["serve_queue_seconds_p50"]*1000, "ms")
	r.put("serve.queue_wait_p99_ms", prom["serve_queue_seconds_p99"]*1000, "ms")
	r.put("serve.batch_size_mean", ratio(prom[`serve_requests_total{endpoint="place"}`], batches), "count")
	r.put("serve.rejected", prom["serve_rejected_total"], "count")
	r.put("serve.shared_cache_hit_ratio", ratio(hits, hits+misses), "ratio")

	st, err := newServingStack()
	if err != nil {
		return err
	}
	defer st.svc.Close()
	r.put("core.build_model_ms", mean(st.buildMs), "ms")

	var places []serve.PlaceRequest
	for len(places) < ladderWarmup+ladderRequests {
		places = append(places, s.g.placeRequest())
	}
	for _, req := range places[:ladderWarmup] {
		if _, _, err := st.svc.Place(req); err != nil {
			return err
		}
		pr, cfg := st.request(req, st.wrapped)
		if _, err := placement.Search(pr, cfg); err != nil {
			return err
		}
	}
	places = places[ladderWarmup:]
	rt := rungTimes{}
	var steps []float64
	qosAsked, qosMet := 0, 0
	for _, req := range places {
		resp, err := r.placeLadder(s, st, req, rt, &steps)
		if err != nil {
			return err
		}
		if req.QoSApp != "" && resp.Endpoint != "" {
			qosAsked++
			if resp.QoSSatisfied {
				qosMet++
			}
		}
	}
	r.put("placement.qos_met_ratio", ratio(float64(qosMet), float64(qosAsked)), "ratio")
	r.put("http.rtt_ms", median(rt["http.place"]), "ms")
	r.put("http.self_ms", rt.self("http.place", "serve.place"), "ms")
	r.put("http.whatif_rtt_ms", median(rt["http.whatif"]), "ms")
	r.put("http.whatif_self_ms", rt.self("http.whatif", "serve.whatif"), "ms")
	r.put("serve.place_ms", median(rt["serve.place"]), "ms")
	r.put("serve.self_ms", rt.self("serve.place", "placement.search"), "ms")
	r.put("serve.whatif_ms", median(rt["serve.whatif"]), "ms")
	r.put("serve.whatif_self_ms", rt.self("serve.whatif", "placement.evaluate"), "ms")
	r.put("placement.search_ms", median(rt["placement.search"]), "ms")
	r.put("placement.setup_us", median(rt["placement.setup"])*1000, "us")
	r.put("placement.step_ns", median(steps), "ns")
	r.put("placement.evaluate_us", median(rt["placement.evaluate"])*1000, "us")

	// The same requests once more with counters attached and a recorder
	// under a fresh shared cache: the work each layer did.
	rec := &recorder{}
	shared := core.NewSharedPredictionCache().WrapAll(rec.wrap(st.preds))
	var counts searchCounts
	for _, req := range places {
		pr, cfg := st.request(req, shared)
		cfg.Telemetry = telemetry.NewRegistry()
		if _, err := placement.Search(pr, cfg); err != nil {
			return err
		}
		counts.add(cfg.Telemetry)
	}
	n := float64(len(places))
	r.put("placement.evaluations_per_req", counts.evaluations/n, "count")
	r.put("placement.pred_cache_hit_ratio", ratio(counts.hits, counts.hits+counts.misses), "ratio")
	r.put("placement.combine_hit_ratio", ratio(counts.combHits, counts.combHits+counts.combMisses), "ratio")
	r.put("placement.accept_ratio", ratio(counts.accepted, counts.proposals), "ratio")
	r.put("placement.iters_to_best_frac", median(counts.toBest), "ratio")
	r.put("core.predict_calls_per_req", float64(rec.calls)/n, "count")
	ns, err := rec.replayNs()
	if err != nil {
		return err
	}
	r.put("core.predict_ns", ns, "ns")
	return nil
}

// placeLadder replays one place request down the serving ladder, then
// re-scores its answer down the what-if ladder. Every rung must give the
// daemon's answer, which it returns (zero when the daemon's was wrong).
// A segment's rung times are kept only when every rung of it checked out,
// so self times always pair the same requests.
func (r *run) placeLadder(s *session, st *servingStack, req serve.PlaceRequest, rt rungTimes, steps *[]float64) (serve.Response, error) {
	root := r.span("ladder.place", req.ID)
	defer root.End()
	seg := rungTimes{}
	cl := placeCall(req)
	var status int
	var body []byte
	d, err := timed(root, "http.place", func() (err error) {
		status, body, err = s.c.do(0, cl)
		return err
	})
	seg.add("http.place", d)
	resp, ok := r.check(cl, sample{status: status, body: body, err: err})
	if !ok {
		return serve.Response{}, nil
	}
	var inproc serve.Response
	d, err = timed(root, "serve.place", func() (err error) {
		inproc, _, err = st.svc.Place(req)
		return err
	})
	seg.add("serve.place", d)
	if err != nil || !sameAnswer(inproc, resp) {
		r.wrong("%s: in-process Place answered %v (%v), the daemon %v", req.ID, inproc.Objective, err, resp.Objective)
		return resp, nil
	}
	pr, cfg := st.request(req, st.wrapped)
	var res placement.Result
	search, err := timed(root, "placement.search", func() (err error) {
		res, err = placement.Search(pr, cfg)
		return err
	})
	seg.add("placement.search", search)
	if err != nil || res.Objective != resp.Objective {
		r.wrong("%s: placement.Search found %v (%v), the daemon %v", req.ID, res.Objective, err, resp.Objective)
		return resp, nil
	}
	one := cfg
	one.Iterations = 1
	setup, err := timed(root, "placement.setup", func() error {
		_, err := placement.Search(pr, one)
		return err
	})
	if err != nil {
		return resp, err
	}
	seg.add("placement.setup", setup)
	*steps = append(*steps, float64((search-setup).Nanoseconds())/float64(cfg.Iterations))
	rt.merge(seg)

	// What-if of the answer, down its own ladder.
	seg = rungTimes{}
	wreq := serve.WhatIfRequest{ID: req.ID + "-w", Placement: resp.Placement, QoSApp: req.QoSApp, QoSMax: req.QoSMax}
	wbody, _ := json.Marshal(wreq)
	wcl := call{id: wreq.ID, whatIf: true, body: wbody, place: req, want: resp.Objective}
	d, err = timed(root, "http.whatif", func() (err error) {
		status, body, err = s.c.do(0, wcl)
		return err
	})
	seg.add("http.whatif", d)
	if _, ok := r.check(wcl, sample{status: status, body: body, err: err}); !ok {
		return resp, nil
	}
	var wresp serve.Response
	d, err = timed(root, "serve.whatif", func() (err error) {
		wresp, _, err = st.svc.WhatIf(wreq)
		return err
	})
	seg.add("serve.whatif", d)
	if err != nil || wresp.Objective != resp.Objective {
		r.wrong("%s: in-process WhatIf scored %v (%v), want %v", wreq.ID, wresp.Objective, err, resp.Objective)
		return resp, nil
	}
	p, err := decodeGrid(resp.Placement)
	if err != nil {
		return resp, err
	}
	var ev placement.Result
	d, err = timed(root, "placement.evaluate", func() (err error) {
		ev, err = placement.Evaluate(p, pr, cfg.QoS)
		return err
	})
	seg.add("placement.evaluate", d)
	if err != nil || ev.Objective != resp.Objective {
		r.wrong("%s: placement.Evaluate scored %v (%v), want %v", wreq.ID, ev.Objective, err, resp.Objective)
		return resp, nil
	}
	rt.merge(seg)
	return resp, nil
}

// sameAnswer compares the parts of two place answers a search decides.
func sameAnswer(a, b serve.Response) bool {
	if a.Objective != b.Objective || a.QoSSatisfied != b.QoSSatisfied || len(a.Placement) != len(b.Placement) {
		return false
	}
	for h := range a.Placement {
		if strings.Join(a.Placement[h], "\x00") != strings.Join(b.Placement[h], "\x00") {
			return false
		}
	}
	return true
}

func (r *run) tracedFleet(own bool) error {
	var gens []float64
	root := r.span("fleet.generate", "")
	for i := 0; i < fleetGens; i++ {
		d, err := timed(root, "fleet.Generate", func() error {
			_, err := fleet.Generate(fleetSpec(), r.seed+int64(i))
			return err
		})
		if err != nil {
			root.End()
			return err
		}
		gens = append(gens, ms(d))
	}
	root.End()
	r.put("fleet.generate_ms", median(gens), "ms")
	in, err := r.fleetSetup()
	if err != nil {
		return err
	}

	var cells, exchange, plain, withSpans []float64
	for i := 0; i < fleetLadder; i++ {
		req, cfg := r.fleetConfig(in, i)
		root := r.span("ladder.fleet", fmt.Sprint(cfg.Seed))
		var res placement.Result
		full, err := timed(root, "placement.search", func() (err error) {
			res, err = placement.Search(req, cfg)
			return err
		})
		if err != nil {
			root.End()
			return err
		}
		if err := checkFleet(req, cfg, res, i < 2); err != nil {
			r.wrong("%v", err)
		} else {
			r.op(false)
		}
		cellsOnly := cfg
		cellsOnly.ExchangeIters = 1
		c, err := timed(root, "placement.cells_phase", func() error {
			_, err := placement.Search(req, cellsOnly)
			return err
		})
		if err != nil {
			root.End()
			return err
		}
		cells = append(cells, ms(c))
		exchange = append(exchange, ms(full-c))
		if own {
			// The workload's own operation with the program's telemetry
			// attached, against the plain timing.
			cfg.Telemetry = telemetry.NewRegistry()
			t, err := timed(root, "placement.search.telemetry", func() error {
				_, err := placement.Search(req, cfg)
				return err
			})
			if err != nil {
				root.End()
				return err
			}
			plain = append(plain, ms(full))
			withSpans = append(withSpans, ms(t))
		}
		root.End()
	}
	if own {
		r.put("trace_overhead_ratio", median(withSpans)/median(plain), "ratio")
	}
	exMs := median(exchange)
	r.put("placement.cells_phase_ms", median(cells), "ms")
	r.put("placement.exchange_ms", exMs, "ms")
	r.put("placement.exchange_us_per_proposal", exMs*1000/float64(fleetExchange-1), "us")

	rec := &recorder{}
	counted := in.req
	counted.Predictors = rec.wrap(in.req.Predictors)
	var counts searchCounts
	for i := 0; i < fleetCounted; i++ {
		req, cfg := r.fleetConfig(fleetInputs{counted, in.down}, i)
		cfg.Telemetry = telemetry.NewRegistry()
		if _, err := placement.Search(req, cfg); err != nil {
			return err
		}
		counts.add(cfg.Telemetry)
	}
	r.put("placement.exchange_conflict_ratio", ratio(counts.exConflicts, counts.exProposals), "ratio")
	r.put("placement.exchange_occupancy", mean(counts.occupancy), "ratio")
	r.put("placement.exchange_accept_ratio", ratio(counts.exAccepted, counts.exProposals), "ratio")
	r.put("core.fleet_predict_calls_per_search", float64(rec.calls)/fleetCounted, "count")
	ns, err := rec.replayNs()
	if err != nil {
		return err
	}
	r.put("core.fleet_predict_ns", ns, "ns")
	return nil
}

func (r *run) tracedRepro(own bool) error {
	cfg := experiments.Config{Seed: r.seed, Workers: r.conns}
	var plain regeneration
	if own {
		if err := r.checkGoldens(); err != nil {
			return err
		}
		var err error
		if plain, err = r.regenerate(cfg); err != nil {
			return err
		}
	}
	// The regeneration with the program's own telemetry registry and tracer.
	reg := telemetry.NewRegistry()
	icfg := cfg
	icfg.Telemetry, icfg.Tracer = reg, telemetry.NewTracer(0)
	g, err := r.regenerate(icfg)
	if err != nil {
		return err
	}
	r.op(false)
	if own {
		if g.digest != plain.digest {
			r.wrong("traced regeneration rendered different bytes")
		}
		r.put("trace_overhead_ratio", float64(g.total)/float64(plain.total), "ratio")
	}
	for id, d := range g.runners {
		r.put("experiments."+id+"_s", d.Seconds(), "s")
	}
	snap := reg.Snapshot()
	var profiled float64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, core.MetricProfileMeasurements) {
			profiled += float64(v)
		}
	}
	r.put("measure.cache_hit_ratio", ratio(float64(g.cacheHits), float64(g.cacheHits+g.cacheMisses)), "ratio")
	r.put("measure.measurements", float64(snap.Counters[measure.MetricMeasureRuns]+snap.Counters[measure.MetricPlacementRuns]), "count")
	r.put("sim.events_fired", float64(snap.Counters[sim.MetricEventsFired]), "count")
	r.put("profile.measurements", profiled, "count")
	return nil
}
