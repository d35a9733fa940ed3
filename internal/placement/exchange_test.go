package placement

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"repro/internal/fleet"
)

// digestResult folds every observable field of a Result — objective
// bits, QoS verdict, evaluation count, placement layout, per-app
// prediction bits — into one FNV-64a word, so "bitwise identical" is a
// single comparison.
func digestResult(r Result) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "obj=%016x qos=%v evals=%d place=%s", math.Float64bits(r.Objective), r.QoSSatisfied, r.Evaluations, r.Placement.String())
	apps := make([]string, 0, len(r.Predicted))
	for a := range r.Predicted {
		apps = append(apps, a)
	}
	sort.Strings(apps)
	for _, a := range apps {
		fmt.Fprintf(h, " %s=%016x", a, math.Float64bits(r.Predicted[a]))
	}
	return h.Sum64()
}

// Golden digests of the serial hierarchical search over a
// goal × QoS × method × seed grid on the 8-host test request. They pin
// the exchange phase to the historical serial annealer: any drift in
// draw discipline, evaluation order, or float accumulation flips a
// digest.
type goldenKey struct {
	goal Goal
	qos  bool
	meth Method
	seed int64
}

var goldenSerial = map[goldenKey]uint64{
	{Best, false, Anneal, 1}:     0x2489c58670ef5bae,
	{Best, false, Anneal, 2}:     0x451b1a78533e86e0,
	{Best, false, Anneal, 3}:     0x1162a8b90725efaa,
	{Best, false, HillClimb, 1}:  0x8228c0e91ec65c7d,
	{Best, false, HillClimb, 2}:  0xed2a0facd5353927,
	{Best, false, HillClimb, 3}:  0xdd3e3d9a52dd7c3a,
	{Best, true, Anneal, 1}:      0x5bf1931154db9389,
	{Best, true, Anneal, 2}:      0x24db93656b08455e,
	{Best, true, Anneal, 3}:      0x8c5d2737f58d192f,
	{Best, true, HillClimb, 1}:   0x8228c0e91ec65c7d,
	{Best, true, HillClimb, 2}:   0xed2a0facd5353927,
	{Best, true, HillClimb, 3}:   0xdd3e3d9a52dd7c3a,
	{Worst, false, Anneal, 1}:    0x91d90ab3431bc62e,
	{Worst, false, Anneal, 2}:    0x4f8c9dc3ceabc3b4,
	{Worst, false, Anneal, 3}:    0x966ae59d25bb2362,
	{Worst, false, HillClimb, 1}: 0xa4e6310a3ddb1de2,
	{Worst, false, HillClimb, 2}: 0x3a4fc0a5a8f49e9d,
	{Worst, false, HillClimb, 3}: 0xe678e103ffdf985c,
}

// deprecatedWorkerCounts feeds the ignored Config.ExchangeWorkers into
// the golden tests: every value must reproduce the same serial digest.
var deprecatedWorkerCounts = []int{0, 1, 2, 4}

func TestSerialExchangeGoldens(t *testing.T) {
	req := testRequest()
	for key, want := range goldenSerial {
		for _, workers := range deprecatedWorkerCounts {
			var qos *QoS
			if key.qos {
				qos = &QoS{App: "sens", MaxNormalized: 1.7}
			}
			cfg := Config{Iterations: 150, Seed: key.seed, Goal: key.goal, Method: key.meth, QoS: qos, Restarts: 2, Cells: 3, ExchangeIters: 200, ExchangeWorkers: workers}
			res, err := Search(req, cfg)
			if err != nil {
				t.Fatalf("%+v workers=%d: %v", key, workers, err)
			}
			if got := digestResult(res); got != want {
				t.Errorf("%+v workers=%d: digest 0x%016x, want golden 0x%016x", key, workers, got, want)
			}
		}
	}
}

// Golden digests of the serial search over generated fleets with down
// hosts — same vintage and purpose as goldenSerial, but exercising the
// spread phase, multi-cell merge, and the down-host skip in the
// exchange draw loop.
type fleetGoldenKey struct {
	fleetSeed int64
	cells     int
	round     int
}

var goldenFleet = map[fleetGoldenKey]uint64{
	{1, 2, 0}: 0x5281f6a52dd6fb7d,
	{1, 2, 2}: 0x1bee551496080e9f,
	{1, 5, 0}: 0xa76ee0af40111592,
	{1, 5, 2}: 0x98e2157f58fa6fc2,
	{2, 2, 0}: 0x0439e6d71ddf0477,
	{2, 2, 2}: 0xbf85436053d2c20e,
	{2, 5, 0}: 0xb4cf38005e369bee,
	{2, 5, 2}: 0x5a59ddcc2d8f0daa,
}

func propFleetSpec() fleet.Spec {
	return fleet.Spec{
		Name:         "prop",
		TotalHosts:   60,
		SlotsPerHost: 2,
		Templates: []fleet.Template{
			{Name: "core", Weight: 3},
			{Name: "burst", Weight: 1, DegradeFactor: 1.3, StartupRounds: 4},
		},
	}
}

func TestSerialExchangeFleetGoldens(t *testing.T) {
	spec := propFleetSpec()
	for key, want := range goldenFleet {
		f, err := fleet.Generate(spec, key.fleetSeed)
		if err != nil {
			t.Fatal(err)
		}
		down := f.DownAt(key.round)
		req := fleetRequest(t, spec, down, key.fleetSeed*100+int64(key.cells), 12)
		for _, workers := range deprecatedWorkerCounts {
			cfg := Config{Iterations: 150, Seed: key.fleetSeed, Restarts: 1, Cells: key.cells, ExchangeIters: 300, ExchangeWorkers: workers}
			res, err := Search(req, cfg)
			if err != nil {
				t.Fatalf("%+v workers=%d: %v", key, workers, err)
			}
			if got := digestResult(res); got != want {
				t.Errorf("%+v workers=%d: digest 0x%016x, want golden 0x%016x", key, workers, got, want)
			}
		}
	}
}

// TestAdaptiveCells: the cmd-level sizing helper must keep small
// clusters flat, and on large ones produce a cell count Search accepts
// with at least adaptiveMinCellHosts hosts per cell.
func TestAdaptiveCells(t *testing.T) {
	for _, workers := range []int{0, 1, 4, 64} {
		for _, hosts := range []int{1, 8, 64, 255} {
			if got := AdaptiveCells(hosts, workers); got != 1 {
				t.Errorf("AdaptiveCells(%d, %d) = %d, want 1 (flat below %d hosts)", hosts, workers, got, adaptiveFlatBelow)
			}
		}
		for _, hosts := range []int{256, 300, 1000, 5000, 10000, 100000} {
			got := AdaptiveCells(hosts, workers)
			if got < 2 || got > hosts {
				t.Fatalf("AdaptiveCells(%d, %d) = %d out of [2, hosts]", hosts, workers, got)
			}
			if hosts/got < adaptiveMinCellHosts {
				t.Errorf("AdaptiveCells(%d, %d) = %d leaves %d hosts/cell, want >= %d", hosts, workers, got, hosts/got, adaptiveMinCellHosts)
			}
		}
	}
	// Search must accept the adaptive output on a real request.
	spec := propFleetSpec()
	spec.TotalHosts = 300
	f, err := fleet.Generate(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	req := fleetRequest(t, spec, f.DownAt(0), 42, 12)
	cells := AdaptiveCells(spec.TotalHosts, 4)
	if cells < 2 {
		t.Fatalf("AdaptiveCells(300, 4) = %d, want >= 2", cells)
	}
	if _, err := Search(req, Config{Iterations: 20, Seed: 1, Restarts: 1, Cells: cells, ExchangeIters: 20}); err != nil {
		t.Fatalf("Search rejected adaptive cell count %d: %v", cells, err)
	}
}
