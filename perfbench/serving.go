package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// servingMode is one open-loop traffic mix against the daemon.
type servingMode struct {
	name        string
	placeIters  int     // per-request iteration override (0 = the daemon's 600)
	whatIfShare float64 // fraction of requests that are what-ifs
	nominalRPS  float64 // the fixed rate end-to-end latency is reported at
	// The rate ladder climbs a fixed geometric grid, ladderBase·ladderStep^k,
	// so the fine step is inside the slo_rps bound.
	ladderBase float64
	p99LimitMs float64 // SLO: a rung's windowed p99 latency from due time stays below this
}

var (
	paperServe = servingMode{
		name: "paper-serve", nominalRPS: 800,
		ladderBase: 2000, p99LimitMs: 25,
	}
	lightMixed = servingMode{
		name: "light-mixed", placeIters: 50, whatIfShare: 0.7, nominalRPS: 1500,
		ladderBase: 2500, p99LimitMs: 25,
	}
)

const (
	ladderStep   = 1.04 // fine rung spacing
	ladderCoarse = 3    // fine steps per coarse step
	fineClimbs   = 3    // fine climbs whose median top rung is slo_rps
	rungRequests = 1600 // per rung: sixteen tail windows
	tailWindow   = 100  // requests per window of a windowed p99
	setupSpawns  = 9    // daemon spawns whose median spawn->ready is setup_s
	poolRequests = 64   // place answers the light-mixed what-ifs re-score
	warmupPlaces = 200  // closed-loop requests before anything is timed
	qosBound     = 1.25 // the paper's "80% of solo performance" guarantee
	clusterHosts = 8    // the daemon's default cluster
	clusterSlots = 2
	seedStride   = 1_000_003 // request and search seeds are seed·seedStride + index
	// The client heap may grow this far before a phase collects garbage.
	phaseHeapLimit = 128 << 20
)

// daemonMix is the daemon's default startup mix (cmd/interfd -mix).
var daemonMix = []string{"M.lmps", "C.libq", "H.KM", "N.cg"}

// call is one scheduled request of an open-loop trace.
type call struct {
	due    time.Duration // offset from the trace start
	id     string
	whatIf bool
	body   []byte
	place  serve.PlaceRequest // the request (place) or the one whose answer is re-scored (what-if)
	want   float64            // what-if: the objective the re-scored place answer reported
}

// sample is what the client saw for one call.
type sample struct {
	due, sent, done time.Time
	status          int
	body            []byte
	err             error
}

// generator derives every request of a run from the seed.
type generator struct {
	mode servingMode
	rng  *rand.Rand
	seed int64
	n    int
	pool []poolEntry // place answers for what-ifs to re-score
}

type poolEntry struct {
	req  serve.PlaceRequest
	resp serve.Response
}

func newGenerator(mode servingMode, seed int64) *generator {
	return &generator{mode: mode, rng: rand.New(rand.NewSource(seed)), seed: seed}
}

// placeRequest draws one /api/place body: 1-2 apps of the daemon's mix at
// 2 or 4 units each, an explicit search seed, and a QoS bound on a quarter
// of the requests.
func (g *generator) placeRequest() serve.PlaceRequest {
	g.n++
	k := 1 + g.rng.Intn(2)
	perm := g.rng.Perm(len(daemonMix))
	apps := make([]serve.AppDemand, k)
	for j := range apps {
		apps[j] = serve.AppDemand{App: daemonMix[perm[j]], Units: 2 + 2*g.rng.Intn(2)}
	}
	req := serve.PlaceRequest{
		ID:         fmt.Sprintf("%s-%d-%d", g.mode.name, g.seed, g.n),
		Apps:       apps,
		Seed:       g.seed*seedStride + int64(g.n),
		Iterations: g.mode.placeIters,
	}
	if g.rng.Float64() < 0.25 {
		req.QoSApp, req.QoSMax = apps[0].App, qosBound
	}
	return req
}

// span names the HTTP rung of a call.
func (cl call) span() string {
	if cl.whatIf {
		return "http.whatif"
	}
	return "http.place"
}

// placeCall wraps a place request as a trace entry.
func placeCall(req serve.PlaceRequest) call {
	body, _ := json.Marshal(req) // plain structs: cannot fail
	return call{id: req.ID, body: body, place: req}
}

// whatIfCall re-scores one pooled place answer under its request's QoS.
func (g *generator) whatIfCall() call {
	e := g.pool[g.rng.Intn(len(g.pool))]
	g.n++
	req := serve.WhatIfRequest{
		ID:        fmt.Sprintf("%s-%d-%d", g.mode.name, g.seed, g.n),
		Placement: e.resp.Placement,
		QoSApp:    e.req.QoSApp, QoSMax: e.req.QoSMax,
	}
	body, _ := json.Marshal(req)
	return call{id: req.ID, whatIf: true, body: body, place: e.req, want: e.resp.Objective}
}

// next draws one request of the mode's mix.
func (g *generator) next() call {
	if g.mode.whatIfShare > 0 && g.rng.Float64() < g.mode.whatIfShare {
		return g.whatIfCall()
	}
	return placeCall(g.placeRequest())
}

// trace draws n requests with Poisson arrivals at rate per second.
func (g *generator) trace(n int, rate float64) []call {
	out := make([]call, n)
	var clock float64
	for i := range out {
		clock += g.rng.ExpFloat64() / rate
		out[i] = g.next()
		out[i].due = time.Duration(clock * float64(time.Second))
	}
	return out
}

// client is the load generator: one keep-alive connection per worker,
// at most nproc of them.
type client struct {
	base  string
	conns []*http.Client
	dials atomic.Int64 // connections opened
	sent  atomic.Int64 // requests sent
}

func (r *run) newClient(base string) *client {
	c := &client{base: base}
	for i := 0; i < r.conns; i++ {
		c.conns = append(c.conns, &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
					c.dials.Add(1)
					return (&net.Dialer{}).DialContext(ctx, network, addr)
				},
			},
		})
	}
	return c
}

func (c *client) close() {
	for _, hc := range c.conns {
		hc.CloseIdleConnections()
	}
}

// do posts one call on connection i.
func (c *client) do(i int, cl call) (int, []byte, error) {
	c.sent.Add(1)
	path := "/api/place"
	if cl.whatIf {
		path = "/api/whatif"
	}
	resp, err := c.conns[i].Post(c.base+path, "application/json", bytes.NewReader(cl.body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// openLoop replays a trace on its schedule: each call is sent at its due
// time, or as soon as a connection frees up if every connection is busy
// (the generator then runs late, which the latency — timed from the due
// time — includes). With abortLateMs > 0 the replay stops sending once the
// generator runs that late, so an overloaded rung ends early instead of
// saturating the shared machine; calls never sent keep a zero sent time.
// It reports whether it stopped early.
func (r *run) openLoop(c *client, trace []call, traced bool, abortLateMs float64) ([]sample, bool) {
	out := make([]sample, len(trace))
	var next atomic.Int64
	var aborted atomic.Bool
	var wg sync.WaitGroup
	start := time.Now().Add(2 * time.Millisecond)
	for w := range c.conns {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !aborted.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(trace) {
					return
				}
				s := &out[i]
				s.due = start.Add(trace[i].due)
				sleepUntil(s.due)
				s.sent = time.Now()
				if abortLateMs > 0 && ms(s.sent.Sub(s.due)) > abortLateMs {
					aborted.Store(true)
					s.sent = time.Time{}
					return
				}
				var sp *telemetry.Span
				if traced {
					sp = r.span(trace[i].span(), trace[i].id)
				}
				s.status, s.body, s.err = c.do(w, trace[i])
				s.done = time.Now()
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	return out, aborted.Load()
}

// sleepUntil blocks the calling thread in nanosleep until t. The runtime's
// timers wake a sleeping goroutine up to a millisecond late on an idle
// process, which would swamp sub-millisecond latencies timed from the due
// time; a blocking nanosleep wakes within tens of microseconds.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// check verifies one answer and counts the operation; it returns the
// decoded response and whether it was correct.
func (r *run) check(cl call, s sample) (serve.Response, bool) {
	var resp serve.Response
	switch {
	case s.err != nil:
		r.wrong("%s: %v", cl.id, s.err)
		return resp, false
	case s.status != http.StatusOK:
		r.wrong("%s: HTTP %d: %s", cl.id, s.status, bytes.TrimSpace(s.body))
		return resp, false
	}
	if err := json.Unmarshal(s.body, &resp); err != nil {
		r.wrong("%s: undecodable answer: %v", cl.id, err)
		return resp, false
	}
	var err error
	if cl.whatIf {
		err = checkWhatIf(cl, resp)
	} else {
		err = checkPlace(cl.place, resp)
	}
	if err != nil {
		r.wrong("%v", err)
		return resp, false
	}
	r.op(false)
	return resp, true
}

// checkPlace verifies a place answer is a valid placement of exactly the
// requested units, whose objective and QoS verdict agree with its own
// predictions.
func checkPlace(req serve.PlaceRequest, resp serve.Response) error {
	if resp.Endpoint != "place" || resp.ID != req.ID || resp.Seed != req.Seed {
		return fmt.Errorf("%s: answer names endpoint %q id %q seed %d", req.ID, resp.Endpoint, resp.ID, resp.Seed)
	}
	p, err := decodeGrid(resp.Placement)
	if err != nil {
		return fmt.Errorf("%s: %v", req.ID, err)
	}
	if got := len(p.Apps()); got != len(req.Apps) {
		return fmt.Errorf("%s: placement holds %d apps, request has %d", req.ID, got, len(req.Apps))
	}
	var total, weight float64
	for _, a := range req.Apps {
		if u := p.UnitsOf(a.App); u != a.Units {
			return fmt.Errorf("%s: %s placed %d units, wants %d", req.ID, a.App, u, a.Units)
		}
		v, ok := resp.Predicted[a.App]
		if !ok || !(v >= 1) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: prediction for %s is %v", req.ID, a.App, v)
		}
		total += v * float64(a.Units)
		weight += float64(a.Units)
	}
	if obj := total / weight; math.Abs(obj-resp.Objective) > 1e-9*obj {
		return fmt.Errorf("%s: objective %v, predictions average %v", req.ID, resp.Objective, obj)
	}
	if req.QoSApp != "" && resp.QoSSatisfied != (resp.Predicted[req.QoSApp] <= req.QoSMax) {
		return fmt.Errorf("%s: QoS verdict %v disagrees with prediction %v", req.ID, resp.QoSSatisfied, resp.Predicted[req.QoSApp])
	}
	if resp.Evaluations <= 0 {
		return fmt.Errorf("%s: %d evaluations", req.ID, resp.Evaluations)
	}
	return nil
}

// checkWhatIf verifies a what-if re-scores its place answer exactly.
func checkWhatIf(cl call, resp serve.Response) error {
	if resp.Endpoint != "whatif" {
		return fmt.Errorf("what-if of %s: answer names endpoint %q", cl.place.ID, resp.Endpoint)
	}
	if resp.Objective != cl.want {
		return fmt.Errorf("what-if of %s: objective %v, the place answer said %v", cl.place.ID, resp.Objective, cl.want)
	}
	return nil
}

// decodeGrid rebuilds a placement on the daemon's cluster, enforcing its
// dimensions and the co-location rule.
func decodeGrid(grid [][]string) (*cluster.Placement, error) {
	if len(grid) != clusterHosts {
		return nil, fmt.Errorf("placement has %d hosts, cluster has %d", len(grid), clusterHosts)
	}
	p, err := cluster.NewPlacementLimit(clusterHosts, clusterSlots, 0)
	if err != nil {
		return nil, err
	}
	for h, row := range grid {
		if len(row) != clusterSlots {
			return nil, fmt.Errorf("host %d has %d slots", h, len(row))
		}
		for s, app := range row {
			if app == "" {
				continue
			}
			if err := p.Set(h, s, app); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

// phase summarizes one open-loop pass.
type phase struct {
	rate      float64
	latencies []float64 // ms from due time, every request
	lateness  []float64 // ms the generator sent late
	failed    int
	aborted   bool      // stopped sending once the generator ran too late
	bytes     int       // response bytes received
	objective []float64 // objectives of correct answers
}

// runPhase replays a trace open-loop and checks every answer. The client's
// garbage collector is held off while the trace plays — with only nproc
// processors, a mark phase would otherwise stall the generator for
// milliseconds and charge the stall to the daemon — unless the heap
// reaches phaseHeapLimit, and runs in between.
func (r *run) runPhase(c *client, trace []call, rate float64, traced bool, abortLateMs float64) phase {
	gc := debug.SetGCPercent(-1)
	limit := debug.SetMemoryLimit(phaseHeapLimit)
	ss, aborted := r.openLoop(c, trace, traced, abortLateMs)
	debug.SetMemoryLimit(limit)
	debug.SetGCPercent(gc)
	runtime.GC()
	ph := phase{rate: rate, aborted: aborted}
	for i, s := range ss {
		if s.sent.IsZero() {
			continue
		}
		ph.latencies = append(ph.latencies, ms(s.done.Sub(s.due)))
		ph.lateness = append(ph.lateness, math.Max(0, ms(s.sent.Sub(s.due))))
		ph.bytes += len(s.body)
		resp, ok := r.check(trace[i], s)
		if !ok {
			ph.failed++
			continue
		}
		ph.objective = append(ph.objective, resp.Objective)
	}
	return ph
}

// backlogged reports whether the generator fell further behind over the
// phase: the median lateness of its last quarter exceeds that of its first
// quarter by more than half the latency limit.
func (ph phase) backlogged(limitMs float64) bool {
	q := len(ph.lateness) / 4
	if q == 0 {
		return false
	}
	return median(ph.lateness[len(ph.lateness)-q:])-median(ph.lateness[:q]) > limitMs/2
}

// windowP99 is the median, over consecutive windows of tailWindow
// requests, of each window's p99 latency. A scheduling stall of the
// (virtual, shared) machine delays every request queued behind it and
// lands in a few windows; the median over windows reports the tail the
// daemon itself gives, which a whole-phase p99 would bury under the
// number of such stalls in that run.
func (ph phase) windowP99() float64 {
	return windowMedian(ph.latencies, tailWindow, p99)
}

// meets reports whether the rung met the SLO: no failed request, a
// windowed p99 under the limit, and no growing backlog.
func (ph phase) meets(limitMs float64) bool {
	return !ph.aborted && ph.failed == 0 && ph.windowP99() < limitMs && !ph.backlogged(limitMs)
}

// session is a ready daemon plus the load generator pointed at it.
type session struct {
	d      *daemon
	c      *client
	g      *generator
	setupS float64
}

// openSession spawns the daemon setupSpawns times (the median
// spawn->ready time is setup_s), keeps the last one, warms it with
// closed-loop traffic and, for mixes with what-ifs, fills the pool of
// place answers they re-score.
func (r *run) openSession(mode servingMode) (*session, error) {
	var readies []float64
	var d *daemon
	for i := 0; i < setupSpawns; i++ {
		if d != nil {
			d.stop()
		}
		var ready time.Duration
		var err error
		d, ready, err = r.startDaemon()
		if err != nil {
			return nil, err
		}
		readies = append(readies, ready.Seconds())
	}
	s := &session{d: d, c: r.newClient(d.base), g: newGenerator(mode, r.seed), setupS: median(readies)}
	warm := make([]call, 0, warmupPlaces)
	for i := 0; i < warmupPlaces; i++ {
		warm = append(warm, placeCall(s.g.placeRequest()))
	}
	// All due at once: every connection sends back to back.
	sent, _ := r.openLoop(s.c, warm, false, 0)
	for i, smp := range sent {
		resp, ok := r.check(warm[i], smp)
		if ok && len(s.g.pool) < poolRequests {
			s.g.pool = append(s.g.pool, poolEntry{req: warm[i].place, resp: resp})
		}
	}
	if len(s.g.pool) == 0 {
		s.close()
		return nil, fmt.Errorf("%s: every warm-up request failed", mode.name)
	}
	return s, nil
}

func (s *session) close() {
	s.c.close()
	s.d.stop()
}

// serving is the open-loop workload: the nominal rate for half the
// measured time, then the rate ladder for the rest.
func (r *run) serving(mode servingMode) error {
	s, err := r.openSession(mode)
	if err != nil {
		return err
	}
	defer s.close()
	start := time.Now()
	nominal := r.runPhase(s.c, s.g.trace(int(mode.nominalRPS*r.measure.Seconds()/2), mode.nominalRPS), mode.nominalRPS, false, 0)
	report(mode, "nominal", nominal)
	if len(nominal.objective) == 0 {
		return fmt.Errorf("%s: no correct answer at the nominal rate", mode.name)
	}
	slo := r.ladder(s, mode, start.Add(r.measure))
	rss, err := s.d.peakRSSMB()
	if err != nil {
		return err
	}
	r.put("setup_s", s.setupS, "s")
	r.put("p50_ms", quantile(nominal.latencies, 0.5), "ms")
	r.put("p99_ms", nominal.windowP99(), "ms")
	r.put("slo_rps", slo, "1/s")
	r.put("objective_mean", mean(nominal.objective), "norm_time")
	r.put("peak_rss_mb", rss, "MB")
	return nil
}

// ladder climbs the fixed rate grid and returns the highest rate that met
// the SLO. A coarse climb finds the last coarse rung that meets it (a miss
// is replayed once with fresh requests, so one stall of the shared machine
// does not end it); then fineClimbs independent fine climbs step up from
// there until a rung misses, and the median of their highest met rungs is
// the answer. No rung starts after the deadline.
func (r *run) ladder(s *session, mode servingMode, deadline time.Time) float64 {
	rate := func(k int) float64 { return mode.ladderBase * math.Pow(ladderStep, float64(k)) }
	meets := func(k, tries int) bool {
		for try := 0; try < tries && time.Now().Before(deadline); try++ {
			ph := r.runPhase(s.c, s.g.trace(rungRequests, rate(k)), rate(k), false, 2*mode.p99LimitMs)
			report(mode, "rung", ph)
			if ph.meets(mode.p99LimitMs) {
				return true
			}
		}
		return false
	}
	k := 0
	for meets(k, 2) {
		k += ladderCoarse
	}
	if k == 0 {
		for k = -1; k > -8*ladderCoarse; k-- {
			if meets(k, 2) {
				return rate(k)
			}
		}
		return 0
	}
	var tops []float64
	for c := 0; c < fineClimbs; c++ {
		top := k - ladderCoarse
		for meets(top+1, 1) {
			top++
		}
		tops = append(tops, float64(top))
	}
	return rate(int(median(tops)))
}

// report logs one phase to standard error.
func report(mode servingMode, what string, ph phase) {
	fmt.Fprintf(os.Stderr, "perfbench: %s %s %.0f/s: n=%d p50=%.3fms p99=%.3fms windowed_p99=%.3fms gen_late_p50_ms=%.3f gen_late_p99_ms=%.3f backlogged=%v failed=%d meets=%v\n",
		mode.name, what, ph.rate, len(ph.latencies), quantile(ph.latencies, 0.5), quantile(ph.latencies, 0.99), ph.windowP99(),
		quantile(ph.lateness, 0.5), quantile(ph.lateness, 0.99), ph.backlogged(mode.p99LimitMs), ph.failed, ph.meets(mode.p99LimitMs))
}
