package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// checkPostings verifies the incremental postings invariants against a
// from-scratch rebuild: identical segment layout and positions (which
// implies per-segment ascending order, since Rebuild emits scan order).
func checkPostings(t testing.TB, tag string, g *Grid, pst *Postings, napps int) {
	t.Helper()
	fresh := NewPostings(g, napps)
	if len(fresh.off) != len(pst.off) || len(fresh.pos) != len(pst.pos) {
		t.Fatalf("%s: postings shape drifted: off %d/%d pos %d/%d", tag, len(pst.off), len(fresh.off), len(pst.pos), len(fresh.pos))
	}
	for i := range fresh.off {
		if fresh.off[i] != pst.off[i] {
			t.Fatalf("%s: off[%d] = %d, want %d", tag, i, pst.off[i], fresh.off[i])
		}
	}
	for i := range fresh.pos {
		if fresh.pos[i] != pst.pos[i] {
			t.Fatalf("%s: pos[%d] = %d, want %d (rebuild)", tag, i, pst.pos[i], fresh.pos[i])
		}
	}
}

// TestDeltaPredictPosEquivalence drives random placements and swap/undo
// sequences through DeltaPredictPos and the from-scratch PredictPlacement
// oracle on the mirrored placement, demanding bit-identical predictions
// at every step, and checks the incremental Swap maintenance against a
// from-scratch Rebuild. Covers cold and warm caches, the pairwise layout
// (2 slots), the generic layout (3 slots), the nil-cache generic path,
// a NUL byte in an app name, and a -0 bubble score.
func TestDeltaPredictPosEquivalence(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		for _, sph := range []int{2, 3} {
			testPosEquivalence(t, seed, sph, seed%3 == 2)
		}
	}
}

func testPosEquivalence(t testing.TB, seed int64, sph int, nilCache bool) {
	demands := []cluster.Demand{
		{App: "a", Units: 3}, {App: "b", Units: 4},
		{App: "c\x00c", Units: 4}, {App: "d", Units: 2},
	}
	limit := 0
	if sph != 2 {
		limit = sph
	}
	hosts := 7
	p, err := cluster.RandomValidLimit(sim.NewRNG(seed), hosts, sph, limit, demands, 0)
	if err != nil {
		t.Fatal(err)
	}
	scores := map[string]float64{"a": 0.5, "b": 0.5, "c\x00c": 6, "d": 2}
	if seed%2 == 1 {
		scores["d"] = math.Copysign(0, -1)
	}
	preds := map[string]Predictor{
		"a": sumPred{0.3}, "b": sumPred{0.01}, "c\x00c": sumPred{0.02}, "d": sumPred{0.05},
	}
	m := newPosMirror(t, p, preds, scores)
	ix, g, pst := m.ix, m.g, m.pst

	cache := NewPredictionCache()
	if nilCache {
		cache = nil
	}

	check := func(tag string) {
		t.Helper()
		checkPostings(t, tag, g, pst, len(ix.Apps))
		for i := range ix.Apps {
			if u := pst.Units(int32(i)); u != p.UnitsOf(ix.Apps[i]) {
				t.Fatalf("%s: Units(%s) = %d, want %d", tag, ix.Apps[i], u, p.UnitsOf(ix.Apps[i]))
			}
		}
		want, err := PredictPlacement(p, preds, scores)
		if err != nil {
			t.Fatalf("%s: oracle: %v", tag, err)
		}
		if err := DeltaPredictPos(g, pst, m.all, ix, cache, m.out); err != nil {
			t.Fatalf("%s: postings path: %v", tag, err)
		}
		for i, a := range ix.Apps {
			if math.Float64bits(m.out[i]) != math.Float64bits(want[a]) {
				t.Fatalf("%s: app %s = %v via postings, want %v (bit-exact)", tag, a, m.out[i], want[a])
			}
		}
	}
	check(fmt.Sprintf("seed=%d sph=%d cold", seed, sph))

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
		check(fmt.Sprintf("seed=%d sph=%d step=%d", seed, sph, step))

		// Undo must restore the postings and predictions exactly (the
		// search engines lean on swap/undo symmetry for rejected
		// proposals).
		m.swap(t, ha, sa, hb, sb)
		check(fmt.Sprintf("seed=%d sph=%d step=%d undo", seed, sph, step))
		m.swap(t, ha, sa, hb, sb)
	}
}

// FuzzDeltaPredictPosEquivalence is the fuzz form of the postings
// equivalence property: whatever the layout seed, slot count, and swap
// stream, DeltaPredictPos must match PredictPlacement bit for bit.
func FuzzDeltaPredictPosEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(2), false)
	f.Add(int64(2), uint8(3), false)
	f.Add(int64(3), uint8(2), true)
	f.Fuzz(func(t *testing.T, seed int64, sphRaw uint8, nilCache bool) {
		sph := 2 + int(sphRaw%3)
		testPosEquivalence(t, seed, sph, nilCache)
	})
}
