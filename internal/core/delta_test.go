package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// sumPred predicts 1 + w*sum(pressures); deterministic and cheap.
type sumPred struct{ w float64 }

func (s sumPred) PredictPressures(ps []float64) (float64, error) {
	var t float64
	for _, p := range ps {
		t += p
	}
	return 1 + s.w*t, nil
}

// countingPred wraps a Predictor and counts invocations.
type countingPred struct {
	inner Predictor
	calls *int
}

func (c countingPred) PredictPressures(ps []float64) (float64, error) {
	*c.calls++
	return c.inner.PredictPressures(ps)
}

func deltaFixture(t *testing.T) (*cluster.Placement, map[string]Predictor, map[string]float64, *int) {
	t.Helper()
	demands := []cluster.Demand{
		{App: "a", Units: 4}, {App: "b", Units: 4},
		{App: "c", Units: 4}, {App: "d", Units: 4},
	}
	p, err := cluster.RandomValid(sim.NewRNG(5), 8, 2, demands, 0)
	if err != nil {
		t.Fatal(err)
	}
	calls := new(int)
	preds := map[string]Predictor{
		"a": countingPred{sumPred{0.3}, calls},
		"b": countingPred{sumPred{0.01}, calls},
		"c": countingPred{sumPred{0.02}, calls},
		"d": countingPred{sumPred{0.05}, calls},
	}
	scores := map[string]float64{"a": 0.5, "b": 0.5, "c": 6, "d": 3}
	return p, preds, scores, calls
}

// posMirror is the indexed mirror of a placement through which the
// delta-predict tests drive DeltaPredictPos: grid and postings are kept
// in lockstep with the placement by swap.
type posMirror struct {
	p   *cluster.Placement
	ix  *AppsIndex
	g   *Grid
	pst *Postings
	all []int32 // every dense app index
	out []float64
}

func newPosMirror(t testing.TB, p *cluster.Placement, preds map[string]Predictor, scores map[string]float64) *posMirror {
	t.Helper()
	ix, err := NewAppsIndex(p.Apps(), preds, scores)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGrid(p, ix)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int32, len(ix.Apps))
	for i := range all {
		all[i] = int32(i)
	}
	return &posMirror{p: p, ix: ix, g: g, pst: NewPostings(g, len(ix.Apps)), all: all, out: make([]float64, len(all))}
}

// swap applies one slot swap to the placement and its mirror.
func (m *posMirror) swap(t testing.TB, ha, sa, hb, sb int) {
	t.Helper()
	if err := m.p.Swap(ha, sa, hb, sb); err != nil {
		t.Fatal(err)
	}
	m.g.Swap(ha, sa, hb, sb)
	m.pst.Swap(m.g, ha, sa, hb, sb)
}

// predict re-predicts the named apps through DeltaPredictPos and
// returns the whole incrementally maintained prediction set by name.
func (m *posMirror) predict(apps []string, cache *PredictionCache) (map[string]float64, error) {
	ids := make([]int32, len(apps))
	for i, a := range apps {
		id, ok := m.ix.IndexOf(a)
		if !ok {
			return nil, fmt.Errorf("app %q not indexed", a)
		}
		ids[i] = id
	}
	if err := DeltaPredictPos(m.g, m.pst, ids, m.ix, cache, m.out); err != nil {
		return nil, err
	}
	res := make(map[string]float64, len(m.out))
	for i, a := range m.ix.Apps {
		res[a] = m.out[i]
	}
	return res, nil
}

// TestDeltaPredictMatchesFull: DeltaPredictPos over all apps must
// reproduce PredictPlacement exactly, cached or not.
func TestDeltaPredictMatchesFull(t *testing.T) {
	p, preds, scores, _ := deltaFixture(t)
	want, err := PredictPlacement(p, preds, scores)
	if err != nil {
		t.Fatal(err)
	}
	for _, cache := range []*PredictionCache{nil, NewPredictionCache()} {
		got, err := newPosMirror(t, p, preds, scores).predict(p.Apps(), cache)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("got %d predictions, want %d", len(got), len(want))
		}
		for a, v := range want {
			if got[a] != v {
				t.Errorf("cache=%v: app %s = %v, want %v (bit-exact)", cache != nil, a, got[a], v)
			}
		}
	}
}

// TestDeltaPredictAfterSwap: applying a swap and re-predicting only the
// apps on the two touched hosts must agree bit-exactly with a full
// re-prediction of the swapped placement.
func TestDeltaPredictAfterSwap(t *testing.T) {
	p, preds, scores, _ := deltaFixture(t)
	m := newPosMirror(t, p, preds, scores)
	cache := NewPredictionCache()
	if _, err := m.predict(p.Apps(), cache); err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(11)
	for i := 0; i < 200; i++ {
		ha, sa := rng.Intn(8), rng.Intn(2)
		hb, sb := rng.Intn(8), rng.Intn(2)
		if p.At(ha, sa) == p.At(hb, sb) {
			continue
		}
		// Affected set: every app with a unit on either touched host.
		affected := map[string]bool{}
		for _, h := range []int{ha, hb} {
			for _, a := range p.HostApps(h) {
				affected[a] = true
			}
		}
		m.swap(t, ha, sa, hb, sb)
		if p.Validate() != nil {
			m.swap(t, ha, sa, hb, sb) // undo
			continue
		}
		var apps []string
		for a := range affected {
			apps = append(apps, a)
		}
		pred, err := m.predict(apps, cache)
		if err != nil {
			t.Fatal(err)
		}
		want, err := PredictPlacement(p, preds, scores)
		if err != nil {
			t.Fatal(err)
		}
		for a, v := range want {
			if pred[a] != v {
				t.Fatalf("step %d: app %s = %v after delta, want %v", i, a, pred[a], v)
			}
		}
	}
}

// TestPredictionCacheHitsAndPurity: revisiting an identical placement
// must hit the cache without calling the predictor again, and hits must
// return the exact value of the original computation.
func TestPredictionCacheHitsAndPurity(t *testing.T) {
	p, preds, scores, calls := deltaFixture(t)
	mir := newPosMirror(t, p, preds, scores)
	cache := NewPredictionCache()
	first, err := mir.predict(p.Apps(), cache)
	if err != nil {
		t.Fatal(err)
	}
	callsAfterFirst := *calls
	if callsAfterFirst == 0 {
		t.Fatal("no predictor calls on cold cache")
	}
	second, err := mir.predict(p.Apps(), cache)
	if err != nil {
		t.Fatal(err)
	}
	if *calls != callsAfterFirst {
		t.Errorf("warm re-prediction called the predictor %d more times, want 0", *calls-callsAfterFirst)
	}
	for a, v := range first {
		if second[a] != v {
			t.Errorf("cache hit for %s returned %v, want %v", a, second[a], v)
		}
	}
	hits, misses := cache.Stats()
	if hits == 0 || misses == 0 {
		t.Errorf("stats hits=%d misses=%d, want both positive", hits, misses)
	}
	if cache.Len() == 0 {
		t.Error("cache retained no entries")
	}
	// Distinct vectors must be distinct keys: change a score and predict
	// under a different app name to avoid collisions.
	var nilCache *PredictionCache
	v, err := nilCache.Predict("a", preds["a"], []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := preds["a"].PredictPressures([]float64{1, 2}); v != want {
		t.Errorf("nil cache Predict = %v, want %v", v, want)
	}
	if h, m := nilCache.Stats(); h != 0 || m != 0 {
		t.Error("nil cache should report zero stats")
	}
	if nilCache.Len() != 0 {
		t.Error("nil cache should report zero length")
	}
}

// TestDeltaPredictErrors covers the failure paths of DeltaPredictPos
// on both its pairwise (cached) and generic (nil-cache) loops.
func TestDeltaPredictErrors(t *testing.T) {
	p, preds, scores, _ := deltaFixture(t)
	caches := func() []*PredictionCache { return []*PredictionCache{nil, NewPredictionCache()} }

	// An indexed app with no unit in the placement.
	preds["ghost2"] = sumPred{1}
	ix, err := NewAppsIndex(append(p.Apps(), "ghost2"), preds, scores)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGrid(p, ix)
	if err != nil {
		t.Fatal(err)
	}
	ghost, _ := ix.IndexOf("ghost2")
	for _, cache := range caches() {
		out := make([]float64, len(ix.Apps))
		if err := DeltaPredictPos(g, NewPostings(g, len(ix.Apps)), []int32{ghost}, ix, cache, out); err == nil {
			t.Errorf("cache=%v: app missing from placement should fail", cache != nil)
		}
	}
	delete(preds, "ghost2")

	badScores := map[string]float64{"a": 0.5} // others missing
	for _, cache := range caches() {
		if _, err := newPosMirror(t, p, preds, badScores).predict(p.Apps(), cache); err == nil {
			t.Errorf("cache=%v: missing co-runner score should fail", cache != nil)
		}
	}
	failing := map[string]Predictor{"a": failPred{}, "b": sumPred{0}, "c": sumPred{0}, "d": sumPred{0}}
	for _, cache := range caches() {
		if _, err := newPosMirror(t, p, failing, scores).predict([]string{"a"}, cache); err == nil {
			t.Errorf("cache=%v: predictor error should propagate", cache != nil)
		}
	}
}

type failPred struct{}

func (failPred) PredictPressures([]float64) (float64, error) {
	return 0, errors.New("boom")
}
