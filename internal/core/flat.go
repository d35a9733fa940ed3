// Indexed prediction: the placement search fixes its app universe for
// a whole search, so app names are bound to dense indexes once —
// predictors and bubble scores become slices, the placement mirrors
// into an int32 grid kept in sync by the swap engine, and the
// per-proposal hot loop (DeltaPredictPos, postings.go) touches no
// strings at all. Outputs are bit-identical to PredictPlacement on the
// mirrored placement: the per-unit co-runner order, the CombineScores
// inputs, and the Predictor calls are the same, only the keys changed
// representation.

package core

import (
	"fmt"

	"repro/internal/cluster"
)

// AppsIndex binds one search's fixed app universe to dense indexes.
// Index order is the caller's app order (the placement search uses its
// sorted app list), and the same index addresses the predictor slice,
// the score slice, Grid cells, and prediction output slices.
type AppsIndex struct {
	Apps  []string // index -> name
	idx   map[string]int32
	preds []Predictor
	// scores[i] is the bubble score of app i; ok[i] records presence so
	// an app that never appears as a co-runner may legally lack one
	// (exactly the lazy error surface of PressuresFor).
	scores []float64
	ok     []bool
}

// NewAppsIndex resolves predictors and scores for apps, in order. A
// missing predictor is an immediate error (every indexed app gets
// predicted); a missing score only errors later, if and when the app
// shows up as somebody's co-runner.
func NewAppsIndex(apps []string, predictors map[string]Predictor, scores map[string]float64) (*AppsIndex, error) {
	ix := &AppsIndex{
		Apps:   apps,
		idx:    make(map[string]int32, len(apps)),
		preds:  make([]Predictor, len(apps)),
		scores: make([]float64, len(apps)),
		ok:     make([]bool, len(apps)),
	}
	for i, a := range apps {
		p, ok := predictors[a]
		if !ok {
			return nil, fmt.Errorf("core: no predictor for %q", a)
		}
		ix.preds[i] = p
		if s, ok := scores[a]; ok {
			ix.scores[i], ix.ok[i] = s, true
		}
		ix.idx[a] = int32(i)
	}
	return ix, nil
}

// IndexOf returns the dense index of app, if bound.
func (ix *AppsIndex) IndexOf(app string) (int32, bool) {
	id, ok := ix.idx[app]
	return id, ok
}

// Grid is the int32 mirror of a Placement over an AppsIndex: cell
// (h, s) holds the dense index of the app occupying that slot, or -1
// when the slot is empty. The placement search keeps it in lockstep
// with its Placement by replaying every Swap.
type Grid struct {
	Hosts, SlotsPerHost int
	cells               []int32
}

// NewGrid mirrors p onto ix's index space.
func NewGrid(p *cluster.Placement, ix *AppsIndex) (*Grid, error) {
	g := &Grid{
		Hosts:        p.NumHosts,
		SlotsPerHost: p.HostSlots,
		cells:        make([]int32, p.NumHosts*p.HostSlots),
	}
	for h := 0; h < p.NumHosts; h++ {
		row := p.Slots(h)
		for s, a := range row {
			if a == "" {
				g.cells[h*p.HostSlots+s] = -1
				continue
			}
			id, ok := ix.IndexOf(a)
			if !ok {
				return nil, fmt.Errorf("core: app %q not in index", a)
			}
			g.cells[h*p.HostSlots+s] = id
		}
	}
	return g, nil
}

// Swap exchanges two cells, mirroring cluster.Placement.Swap.
func (g *Grid) Swap(hostA, slotA, hostB, slotB int) {
	i := hostA*g.SlotsPerHost + slotA
	j := hostB*g.SlotsPerHost + slotB
	g.cells[i], g.cells[j] = g.cells[j], g.cells[i]
}

// Row returns the slot row of one host; callers must not mutate it.
func (g *Grid) Row(h int) []int32 {
	return g.cells[h*g.SlotsPerHost : (h+1)*g.SlotsPerHost]
}

// AppendCells appends the full cell array to dst and returns it — the
// allocation-free snapshot primitive behind the search's best-state
// bookkeeping.
func (g *Grid) AppendCells(dst []int32) []int32 {
	return append(dst, g.cells...)
}

// PredictIdx is Predict keyed by a dense AppsIndex index instead of a
// name. Indexed keys live in their own half of the keyspace (negative
// internal IDs), so mixing Predict and PredictIdx on one cache can
// never alias two different apps.
func (c *PredictionCache) PredictIdx(id int32, pred Predictor, pressures []float64) (float64, error) {
	if c == nil {
		return pred.PredictPressures(pressures)
	}
	key := -1 - id
	h := hashKey(uint64(uint32(key)), pressures)
	if v, ok := c.pt.get(h, key, pressures); ok {
		c.hits++
		return v, nil
	}
	v, err := pred.PredictPressures(pressures)
	if err != nil {
		return 0, err
	}
	c.pt.put(h, key, pressures, v)
	c.misses++
	return v, nil
}

// combinedOf returns the memoized combined pressure exerted on a unit
// whose sole potential co-runner is other (-1: empty slot). The hit
// paths are a bool test and an array load; misses delegate to the
// generic single-element memo fill.
func combinedOf(cache *PredictionCache, ix *AppsIndex, other int32) (float64, error) {
	if other < 0 {
		if cache.cEmptyOK {
			cache.combineHits++
			return cache.cEmpty, nil
		}
		return cache.combineIdx(cache.co[:0], -1)
	}
	if int(other) < len(cache.c1) && cache.c1ok[other] {
		cache.combineHits++
		return cache.c1[other], nil
	}
	if !ix.ok[other] {
		return 0, fmt.Errorf("core: no bubble score for %q", ix.Apps[other])
	}
	cache.co = append(cache.co[:0], ix.scores[other])
	return cache.combineIdx(cache.co, other)
}
