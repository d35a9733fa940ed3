package core

import (
	"sync"
	"testing"
)

// TestSharedCachePurityAndReuse: wrapped predictions are bit-identical to
// direct ones, and a repeat of the same (app, pressures) point never
// reaches the underlying predictor again.
func TestSharedCachePurityAndReuse(t *testing.T) {
	calls := 0
	inner := countingPred{sumPred{0.3}, &calls}
	sc := NewSharedPredictionCache()
	wrapped := sc.Wrap("a", inner)

	ps := []float64{0.5, 1.25, 2}
	want, err := inner.PredictPressures(ps)
	if err != nil {
		t.Fatal(err)
	}
	calls = 0
	for i := 0; i < 5; i++ {
		got, err := wrapped.PredictPressures(ps)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("wrapped prediction %v != direct %v", got, want)
		}
	}
	if calls != 1 {
		t.Errorf("underlying predictor called %d times, want 1", calls)
	}
	if hits, misses := sc.Stats(); hits != 4 || misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 4/1", hits, misses)
	}
	if sc.Len() != 1 {
		t.Errorf("Len = %d, want 1", sc.Len())
	}

	// A different app with the same pressures is a distinct key.
	if _, err := sc.Wrap("b", inner).PredictPressures(ps); err != nil {
		t.Fatal(err)
	}
	if sc.Len() != 2 {
		t.Errorf("Len after second app = %d, want 2", sc.Len())
	}
}

// TestSharedCacheConcurrent hammers one shared cache from many goroutines
// mixing repeat and distinct keys — the -race coverage for the serving
// plane's cross-request sharing.
func TestSharedCacheConcurrent(t *testing.T) {
	pure := sumPred{0.1}
	inner := Predictor(pure) // cache-side calls are serialized by the lock
	sc := NewSharedPredictionCache()
	apps := []string{"a", "b", "c"}

	const workers = 8
	const rounds = 200
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				app := apps[i%len(apps)]
				ps := []float64{float64(i % 7), 0.5}
				got, err := sc.Wrap(app, inner).PredictPressures(ps)
				if err != nil {
					errs <- err
					return
				}
				want, _ := pure.PredictPressures(ps)
				if got != want {
					t.Errorf("worker %d: got %v, want %v", w, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// 3 apps x 7 pressure values = 21 distinct keys; everything else hit.
	if sc.Len() != 21 {
		t.Errorf("Len = %d, want 21", sc.Len())
	}
	hits, misses := sc.Stats()
	if misses != 21 {
		t.Errorf("misses = %d, want 21", misses)
	}
	if want := uint64(workers*rounds) - 21; hits != want {
		t.Errorf("hits = %d, want %d", hits, want)
	}
}

// TestSharedCacheNilSafe: a nil shared cache degrades to plain prediction.
func TestSharedCacheNilSafe(t *testing.T) {
	var sc *SharedPredictionCache
	calls := 0
	inner := countingPred{sumPred{0.2}, &calls}
	if got := sc.Wrap("a", inner); got != Predictor(inner) {
		t.Error("nil cache Wrap did not return the predictor unchanged")
	}
	if _, err := sc.Predict("a", inner, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("underlying calls = %d, want 1", calls)
	}
	if h, m := sc.Stats(); h != 0 || m != 0 {
		t.Error("nil cache reported stats")
	}
	if sc.Len() != 0 {
		t.Error("nil cache reported entries")
	}
	preds := map[string]Predictor{"a": inner}
	if got := sc.WrapAll(preds); len(got) != 1 || got["a"] != Predictor(inner) {
		t.Error("nil cache WrapAll did not pass the map through")
	}
}

// TestSharedCacheUnderDelta: DeltaPredictPos through wrapped predictors
// (the serving-plane configuration: per-search cache over the shared
// tier) matches an uncached full prediction exactly.
func TestSharedCacheUnderDelta(t *testing.T) {
	p, preds, scores, _ := deltaFixture(t)
	want, err := PredictPlacement(p, preds, scores)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewSharedPredictionCache()
	m := newPosMirror(t, p, sc.WrapAll(preds), scores)
	local := NewPredictionCache()
	for round := 0; round < 3; round++ {
		out, err := m.predict(p.Apps(), local)
		if err != nil {
			t.Fatal(err)
		}
		for app, v := range want {
			if out[app] != v {
				t.Fatalf("round %d: %s = %v, want %v", round, app, out[app], v)
			}
		}
	}
	if _, misses := sc.Stats(); misses == 0 {
		t.Error("shared cache never consulted through DeltaPredictPos")
	}
}
