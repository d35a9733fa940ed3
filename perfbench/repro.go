package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/experiments"
)

const (
	labSetups    = 201 // lab constructions whose median is setup_s
	minRegens    = 2   // regenerations per run, however short the run
	reproWindow  = 3   // regenerations per window of the windowed p99
	goldenSeed   = 2016
	goldenSubdir = "internal/experiments/testdata/golden"
)

// regeneration is one full-fidelity pass over the 12 paper runners from a
// cold lab.
type regeneration struct {
	total   time.Duration
	runners map[string]time.Duration
	digest  uint64
	outs    map[string]experiments.Output
	// Measurement-cache traffic of the regeneration's lab.
	cacheHits, cacheMisses uint64
}

// regenerate runs every paper runner in order on a fresh lab, as
// cmd/paperrepro does, timing each and digesting the rendered bytes.
func (r *run) regenerate(cfg experiments.Config) (regeneration, error) {
	g := regeneration{runners: map[string]time.Duration{}, outs: map[string]experiments.Output{}}
	root := r.span("experiments.regenerate", "")
	defer root.End()
	t0 := time.Now()
	lab, err := experiments.NewLab(cfg)
	if err != nil {
		return g, err
	}
	h := fnv.New64a()
	for _, rn := range experiments.Runners() {
		sp := root.StartChild("experiments." + rn.ID)
		t := time.Now()
		out, err := rn.Run(lab)
		g.runners[rn.ID] = time.Since(t)
		sp.End()
		if err != nil {
			return g, fmt.Errorf("runner %s: %w", rn.ID, err)
		}
		g.outs[rn.ID] = out
		h.Write([]byte(out.Render()))
	}
	g.total = time.Since(t0)
	g.digest = h.Sum64()
	g.cacheHits, g.cacheMisses = lab.Cache.Hits(), lab.Cache.Misses()
	return g, nil
}

// checkGoldens runs, in quick mode at the golden seed, every paper runner
// that has a committed golden rendering and compares the bytes.
func (r *run) checkGoldens() error {
	lab, err := experiments.NewLab(experiments.Config{Seed: goldenSeed, Quick: true, Workers: r.conns})
	if err != nil {
		return err
	}
	checked := 0
	for _, rn := range experiments.Runners() {
		want, err := os.ReadFile(filepath.Join(r.root, goldenSubdir, rn.ID+".txt"))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return err
		}
		out, err := rn.Run(lab)
		if err != nil {
			r.wrong("quick %s: %v", rn.ID, err)
			continue
		}
		checked++
		if got := []byte(out.Render()); !bytes.Equal(got, want) {
			r.wrong("quick %s differs from its golden rendering", rn.ID)
			continue
		}
		r.op(false)
	}
	if checked == 0 {
		return fmt.Errorf("no golden rendering found under %s", goldenSubdir)
	}
	return nil
}

// figure10Objective reads the placement quality off the regenerated
// Figure 10: the mean measured normalized runtime per app under the
// model-driven placements of its four QoS mixes.
func figure10Objective(out experiments.Output) (float64, error) {
	if len(out.Tables) != 2 || out.Tables[1].Rows() == 0 {
		return 0, fmt.Errorf("figure10 lacks its runtime table")
	}
	sums := out.Tables[1]
	var total float64
	for i := 0; i < sums.Rows(); i++ {
		cell, err := sums.Cell(i, 1)
		if err != nil {
			return 0, err
		}
		v, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			return 0, fmt.Errorf("figure10 sum %q: %w", cell, err)
		}
		total += v / 4 // 4 apps per mix
	}
	return total / float64(sums.Rows()), nil
}

// paperRepro regenerates the paper back to back from cold labs until the
// measured time is spent; every regeneration must render the same bytes.
func (r *run) paperRepro() error {
	cfg := experiments.Config{Seed: r.seed, Workers: r.conns}
	setup, err := medianOf(labSetups, func() error {
		_, err := experiments.NewLab(cfg)
		return err
	})
	if err != nil {
		return err
	}
	if err := r.checkGoldens(); err != nil {
		return err
	}
	var totals, rss []float64
	var first regeneration
	deadline := time.Now().Add(r.measure)
	for i := 0; i < minRegens || time.Now().Before(deadline); i++ {
		if err := resetPeakRSS(); err != nil {
			return err
		}
		g, err := r.regenerate(cfg)
		if err != nil {
			r.wrong("regeneration %d: %v", i, err)
			continue
		}
		if first.outs == nil {
			first = g
		}
		if g.digest != first.digest {
			r.wrong("regeneration %d rendered different bytes (digest %016x, first %016x)", i, g.digest, first.digest)
			continue
		}
		r.op(false)
		totals = append(totals, ms(g.total))
		peak, err := peakRSSMB(os.Getpid())
		if err != nil {
			return err
		}
		rss = append(rss, peak)
	}
	if first.outs == nil {
		return fmt.Errorf("paper-repro: every regeneration failed")
	}
	obj, err := figure10Objective(first.outs["figure10"])
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: paper-repro: %d regenerations, p50=%.0fms\n", len(totals), quantile(totals, 0.5))
	r.put("setup_s", setup, "s")
	r.put("p50_ms", quantile(totals, 0.5), "ms")
	r.put("p99_ms", windowMedian(totals, reproWindow, p99), "ms")
	r.put("slo_rps", 1000/quantile(totals, 0.5), "1/s")
	r.put("objective_mean", obj, "norm_time")
	r.put("peak_rss_mb", median(rss), "MB")
	return nil
}
