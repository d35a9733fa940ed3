package core

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// propPred is a synthetic pure predictor with app-specific shape: linear
// in the pressure sum plus a max term, so swaps genuinely move it.
type propPred struct{ per, atMax float64 }

func (f propPred) PredictPressures(ps []float64) (float64, error) {
	var sum, max float64
	for _, p := range ps {
		sum += p
		if p > max {
			max = p
		}
	}
	return 1 + f.per*sum + f.atMax*max, nil
}

// randomProblem draws a random cluster shape, app set, and valid
// placement. The per-host app limit equals the slot count, so every
// slot assignment is valid and swaps are never rejected.
func randomProblem(t *testing.T, r *sim.RNG) (*cluster.Placement, []string, map[string]Predictor, map[string]float64) {
	t.Helper()
	numHosts := 4 + r.Intn(5) // 4..8
	slots := 2
	numApps := 2 + r.Intn(3) // 2..4
	names := []string{"alpha", "beta", "gamma", "delta"}[:numApps]

	capacity := numHosts * slots
	demands := make([]cluster.Demand, numApps)
	total := 0
	for i, n := range names {
		u := 1 + r.Intn(3)
		if total+u > capacity-(numApps-1-i) {
			u = 1
		}
		demands[i] = cluster.Demand{App: n, Units: u}
		total += u
	}
	preds := map[string]Predictor{}
	scores := map[string]float64{}
	for _, n := range names {
		preds[n] = propPred{per: r.Uniform(0.01, 0.4), atMax: r.Uniform(0, 0.2)}
		scores[n] = r.Uniform(0.3, 7)
	}
	p, err := cluster.RandomValidLimit(r.Stream("placement"), numHosts, slots, slots, demands, 0)
	if err != nil {
		t.Fatal(err)
	}
	return p, names, preds, scores
}

// affectedApps lists the distinct apps with units on hosts ha or hb.
func affectedApps(p *cluster.Placement, ha, hb int) []string {
	seen := map[string]bool{}
	var out []string
	for _, h := range []int{ha, hb} {
		for _, a := range p.HostApps(h) {
			if !seen[a] {
				seen[a] = true
				out = append(out, a)
			}
		}
	}
	return out
}

// TestPropertyDeltaPredictMatchesFullPredict is the seeded quick-check
// behind the incremental search engine: across random problems and random
// swap/undo walks, the prediction set DeltaPredictPos maintains must stay
// bit-identical to a fresh full prediction of the current placement.
func TestPropertyDeltaPredictMatchesFullPredict(t *testing.T) {
	rng := sim.NewRNG(2016).Stream("property")
	for trial := 0; trial < 25; trial++ {
		r := rng.StreamN("trial", trial)
		p, apps, preds, scores := randomProblem(t, r)
		m := newPosMirror(t, p, preds, scores)
		cache := NewPredictionCache()
		if _, err := m.predict(apps, cache); err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 40; step++ {
			slots := p.NumHosts * p.HostSlots
			a, b := r.Intn(slots), r.Intn(slots)
			ha, sa := a/p.HostSlots, a%p.HostSlots
			hb, sb := b/p.HostSlots, b%p.HostSlots
			if p.At(ha, sa) == p.At(hb, sb) {
				continue
			}
			m.swap(t, ha, sa, hb, sb)
			if r.Bool(0.5) {
				// Rejected proposal: undo before re-predicting, exactly
				// as the engine's reject path leaves the placement.
				m.swap(t, ha, sa, hb, sb)
			}
			inc, err := m.predict(affectedApps(p, ha, hb), cache)
			if err != nil {
				t.Fatal(err)
			}
			full, err := PredictPlacement(p, preds, scores)
			if err != nil {
				t.Fatal(err)
			}
			if len(full) != len(inc) {
				t.Fatalf("trial %d step %d: %d apps full vs %d incremental", trial, step, len(full), len(inc))
			}
			for app, want := range full {
				got := inc[app]
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d step %d app %s: incremental %v != full %v (bit drift)",
						trial, step, app, got, want)
				}
			}
		}
		if hits, misses := cache.Stats(); hits == 0 || misses == 0 {
			t.Errorf("trial %d: degenerate cache traffic (hits=%d misses=%d)", trial, hits, misses)
		}
	}
}

// TestPropertyCacheHitsAreBitIdentical checks the memoization contract:
// predictions served from the cache equal the nil-cache (always
// recompute) results bit for bit, on the same random walks.
func TestPropertyCacheHitsAreBitIdentical(t *testing.T) {
	rng := sim.NewRNG(2016).Stream("cache-property")
	for trial := 0; trial < 25; trial++ {
		r := rng.StreamN("trial", trial)
		p, _, preds, scores := randomProblem(t, r)
		m := newPosMirror(t, p, preds, scores)
		cache := NewPredictionCache()
		cached := make([]float64, len(m.all))
		bare := make([]float64, len(m.all))
		for step := 0; step < 30; step++ {
			// Re-predicting the same placement repeatedly forces hits.
			if err := DeltaPredictPos(m.g, m.pst, m.all, m.ix, cache, cached); err != nil {
				t.Fatal(err)
			}
			if err := DeltaPredictPos(m.g, m.pst, m.all, m.ix, nil, bare); err != nil {
				t.Fatal(err)
			}
			for i, app := range m.ix.Apps {
				if math.Float64bits(cached[i]) != math.Float64bits(bare[i]) {
					t.Fatalf("trial %d step %d app %s: cached %v != uncached %v",
						trial, step, app, cached[i], bare[i])
				}
			}
			slots := p.NumHosts * p.HostSlots
			a, b := r.Intn(slots), r.Intn(slots)
			if p.At(a/p.HostSlots, a%p.HostSlots) != p.At(b/p.HostSlots, b%p.HostSlots) {
				m.swap(t, a/p.HostSlots, a%p.HostSlots, b/p.HostSlots, b%p.HostSlots)
			}
		}
		if hits, _ := cache.Stats(); hits == 0 {
			t.Errorf("trial %d: the revisit walk never hit the cache", trial)
		}
	}
}
