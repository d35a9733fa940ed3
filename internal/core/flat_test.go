package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// --- regression: byte-key ambiguity with NUL in app names -------------

// TestCacheNULNameNoCollision: under the old byte-key scheme
// (app + "\x00" + float bits) the two (app, pressures) pairs below
// produced the same cache key, so whichever was predicted second
// silently returned the first's value. The interned-ID scheme keys the
// name structurally and must keep them distinct.
func TestCacheNULNameNoCollision(t *testing.T) {
	p1 := 3.5
	p2 := 1.25
	var tail [8]byte
	binary.LittleEndian.PutUint64(tail[:], math.Float64bits(p1))

	appA := "x"
	psA := []float64{p1, p2}
	appB := "x\x00" + string(tail[:]) // old key: identical to (appA, psA)
	psB := []float64{p2}

	predA := sumPred{0.3}
	predB := sumPred{0.7}
	wantA, _ := predA.PredictPressures(psA)
	wantB, _ := predB.PredictPressures(psB)
	if wantA == wantB {
		t.Fatal("fixture error: the two predictions must differ for the test to detect a collision")
	}

	cache := NewPredictionCache()
	got, err := cache.Predict(appA, predA, psA)
	if err != nil {
		t.Fatal(err)
	}
	if got != wantA {
		t.Fatalf("Predict(%q) = %v, want %v", appA, got, wantA)
	}
	got, err = cache.Predict(appB, predB, psB)
	if err != nil {
		t.Fatal(err)
	}
	if got != wantB {
		t.Errorf("Predict(adversarial NUL name) = %v, want %v (collided with %q's entry)", got, wantB, appA)
	}
	// And the original entry must survive unharmed.
	got, err = cache.Predict(appA, predA, psA)
	if err != nil {
		t.Fatal(err)
	}
	if got != wantA {
		t.Errorf("Predict(%q) after adversarial insert = %v, want %v", appA, got, wantA)
	}
}

// --- regression: signed-zero keys -------------------------------------

// TestCacheSignedZeroHits: +0 and -0 compare equal and every predictor
// is a pure function of the float values, so a -0 entry must hit the +0
// entry's memo instead of recomputing under a distinct key.
func TestCacheSignedZeroHits(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cache := NewPredictionCache()
	calls := 0
	pred := countingPred{sumPred{0.4}, &calls}

	v1, err := cache.Predict("a", pred, []float64{0, 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("cold predict made %d calls, want 1", calls)
	}
	v2, err := cache.Predict("a", pred, []float64{negZero, 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("-0 vector recomputed (calls=%d): signed zero missed the cache", calls)
	}
	if v1 != v2 {
		t.Errorf("predictions differ across zero signs: %v vs %v", v1, v2)
	}
	if hits, _ := cache.Stats(); hits != 1 {
		t.Errorf("hits = %d, want 1 (the -0 lookup)", hits)
	}
	if keyBits(negZero) != keyBits(0.0) {
		t.Error("keyBits must normalize -0 to +0")
	}
	if keyBits(negZero) != 0 {
		t.Error("keyBits(±0) must be 0")
	}
}

// --- regression: combine-memo stats -----------------------------------

// TestCombineStatsVisible: the co-runner combine memo used to count its
// traffic nowhere. Both sides of the pair must now be observable, on
// the pairwise layout (direct-array memos) and on a three-slot layout,
// whose two-co-runner vectors reach the hashed combine memo.
func TestCombineStatsVisible(t *testing.T) {
	p, preds, scores, _ := deltaFixture(t)
	checkCombineStats(t, "pairwise", p, preds, scores)

	p3, err := cluster.RandomValidLimit(sim.NewRNG(5), 6, 3, 3, []cluster.Demand{
		{App: "a", Units: 4}, {App: "b", Units: 4},
		{App: "c", Units: 4}, {App: "d", Units: 4},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cache := checkCombineStats(t, "three-slot", p3, preds, scores); cache.ct.n == 0 {
		t.Error("three-slot layout never reached the hashed combine memo")
	}

	var nilCache *PredictionCache
	if h, m := nilCache.CombineStats(); h != 0 || m != 0 {
		t.Error("nil cache must report zero combine stats")
	}
}

// checkCombineStats predicts every app of p twice through
// DeltaPredictPos on one cache: the cold pass must count combine
// misses, the warm pass combine hits.
func checkCombineStats(t *testing.T, tag string, p *cluster.Placement, preds map[string]Predictor, scores map[string]float64) *PredictionCache {
	t.Helper()
	m := newPosMirror(t, p, preds, scores)
	cache := NewPredictionCache()
	if err := DeltaPredictPos(m.g, m.pst, m.all, m.ix, cache, m.out); err != nil {
		t.Fatal(err)
	}
	if _, misses := cache.CombineStats(); misses == 0 {
		t.Errorf("%s cold pass: combine misses = 0, want > 0", tag)
	}
	if err := DeltaPredictPos(m.g, m.pst, m.all, m.ix, cache, m.out); err != nil {
		t.Fatal(err)
	}
	if hits, _ := cache.CombineStats(); hits == 0 {
		t.Errorf("%s warm pass: combine hits = 0, want > 0", tag)
	}
	return cache
}

// --- equivalence: index-keyed cache vs name-keyed cache ---------------

// checkIdxEquivalence predicts every app of p through both cache
// keyings — by name (PressuresFor, then refCache.Predict) and by dense
// AppsIndex index (DeltaPredictPos, which memoizes through PredictIdx
// and the pairwise co-runner keys into idxCache, possibly nil or the
// same cache as refCache) — and fails unless every prediction is
// bit-identical.
func checkIdxEquivalence(t testing.TB, tag string, m *posMirror, preds map[string]Predictor, scores map[string]float64, refCache, idxCache *PredictionCache) {
	t.Helper()
	if err := DeltaPredictPos(m.g, m.pst, m.all, m.ix, idxCache, m.out); err != nil {
		t.Fatalf("%s: indexed path: %v", tag, err)
	}
	for i, a := range m.ix.Apps {
		ps, err := PressuresFor(m.p, a, scores)
		if err != nil {
			t.Fatalf("%s: pressures of %s: %v", tag, a, err)
		}
		want, err := refCache.Predict(a, preds[a], ps)
		if err != nil {
			t.Fatalf("%s: name-keyed path: %v", tag, err)
		}
		if math.Float64bits(m.out[i]) != math.Float64bits(want) {
			t.Fatalf("%s: app %s = %v via indexed path, want %v (bit-exact)", tag, a, m.out[i], want)
		}
	}
}

// TestDeltaPredictIdxEquivalence drives random placements and swap
// sequences through the index-keyed cache path and the name-keyed cache
// path, demanding bit-identical predictions at every step — cold and
// warm caches, a nil index cache, one cache shared by both keyings
// (PredictIdx keys must never alias Predict keys), pairwise (2 slots)
// and generic (3 slots) layouts, a NUL byte in an app name and a -0
// bubble score.
func TestDeltaPredictIdxEquivalence(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		for _, sph := range []int{2, 3} {
			testIdxEquivalence(t, seed, sph, seed%3 == 2)
		}
	}
}

func testIdxEquivalence(t testing.TB, seed int64, sph int, nilIdxCache bool) {
	demands := []cluster.Demand{
		{App: "a", Units: 3}, {App: "b", Units: 4},
		{App: "c\x00c", Units: 4}, {App: "d", Units: 2},
	}
	limit := 0
	if sph != 2 {
		limit = sph // beyond the pairwise rule: allow sph distinct apps
	}
	hosts := 7
	p, err := cluster.RandomValidLimit(sim.NewRNG(seed), hosts, sph, limit, demands, 0)
	if err != nil {
		t.Fatal(err)
	}
	negZero := math.Copysign(0, -1)
	scores := map[string]float64{"a": 0.5, "b": 0.5, "c\x00c": 6, "d": negZero}
	preds := map[string]Predictor{
		"a": sumPred{0.3}, "b": sumPred{0.01}, "c\x00c": sumPred{0.02}, "d": sumPred{0.05},
	}

	refCache := NewPredictionCache()
	idxCache := NewPredictionCache()
	switch {
	case nilIdxCache:
		idxCache = nil
	case seed%3 == 0:
		idxCache = refCache
	}
	m := newPosMirror(t, p, preds, scores)
	checkIdxEquivalence(t, fmt.Sprintf("seed=%d sph=%d cold", seed, sph), m, preds, scores, refCache, idxCache)

	rng := sim.NewRNG(seed + 1000)
	slots := hosts * sph
	for step := 0; step < 60; step++ {
		a, b := rng.Intn(slots), rng.Intn(slots)
		ha, sa := a/sph, a%sph
		hb, sb := b/sph, b%sph
		if p.At(ha, sa) == p.At(hb, sb) {
			continue
		}
		m.swap(t, ha, sa, hb, sb)
		if p.ValidateHosts(ha, hb) != nil {
			m.swap(t, ha, sa, hb, sb)
			continue
		}
		tag := fmt.Sprintf("seed=%d sph=%d step=%d", seed, sph, step)
		checkIdxEquivalence(t, tag, m, preds, scores, refCache, idxCache)
	}
}

// FuzzDeltaPredictIdxEquivalence is the fuzz form of the cache-keying
// equivalence: whatever the layout seed, slot count, and swap stream,
// the index-keyed path must match the name-keyed path bit for bit.
func FuzzDeltaPredictIdxEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(2), false)
	f.Add(int64(2), uint8(3), false)
	f.Add(int64(3), uint8(2), true)
	f.Fuzz(func(t *testing.T, seed int64, sphRaw uint8, nilCache bool) {
		sph := 2 + int(sphRaw%3) // 2..4 slots per host
		testIdxEquivalence(t, seed, sph, nilCache)
	})
}

// --- allocation pins ---------------------------------------------------

// TestPredictHotPathZeroAllocs pins the steady-state hot path at zero
// allocations: warm delta prediction, warm string-keyed prediction, and
// warm PredictIdx must not touch the heap.
func TestPredictHotPathZeroAllocs(t *testing.T) {
	p, preds, scores, _ := deltaFixture(t)
	cache := NewPredictionCache()
	m := newPosMirror(t, p, preds, scores)
	if err := DeltaPredictPos(m.g, m.pst, m.all, m.ix, cache, m.out); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if err := DeltaPredictPos(m.g, m.pst, m.all, m.ix, cache, m.out); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm DeltaPredictPos allocates %v/run, want 0", allocs)
	}

	ps := []float64{6, 0.5, 0.5}
	if _, err := cache.Predict("a", preds["a"], ps); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := cache.Predict("a", preds["a"], ps); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm Predict allocates %v/run, want 0", allocs)
	}

	if _, err := cache.PredictIdx(0, m.ix.preds[0], ps); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := cache.PredictIdx(0, m.ix.preds[0], ps); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm PredictIdx allocates %v/run, want 0", allocs)
	}
}

// --- indexed-path error surfaces --------------------------------------

func TestIndexedErrors(t *testing.T) {
	p, preds, scores, _ := deltaFixture(t)
	if _, err := NewAppsIndex([]string{"ghost"}, preds, scores); err == nil {
		t.Error("unknown app must fail index construction")
	}
	ix, err := NewAppsIndex(p.Apps(), preds, scores)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ix.IndexOf("ghost"); ok {
		t.Error("IndexOf(ghost) must report absence")
	}
	g, err := NewGrid(p, ix)
	if err != nil {
		t.Fatal(err)
	}
	pst := NewPostings(g, len(ix.Apps))
	if err := DeltaPredictPos(nil, pst, nil, ix, nil, []float64{}); err == nil {
		t.Error("nil grid must fail")
	}
	if err := DeltaPredictPos(g, nil, nil, ix, nil, []float64{}); err == nil {
		t.Error("nil postings must fail")
	}
	if err := DeltaPredictPos(g, pst, nil, ix, nil, nil); err == nil {
		t.Error("nil out slice must fail")
	}
	// A placement holding an app outside the index must fail mirroring.
	other, err := cluster.RandomValid(sim.NewRNG(1), 4, 2,
		[]cluster.Demand{{App: "zz", Units: 2}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewGrid(other, ix); err == nil {
		t.Error("grid over unindexed app must fail")
	}
}
