package measure

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/workloads"
)

// savedCache runs the batch suite on a fresh env and returns the decoded
// cache file it saves.
func savedCache(t *testing.T) cacheFile {
	t.Helper()
	e := newBatchEnv(t, 2, false)
	runBatched(t, e)
	path := filepath.Join(t.TempDir(), "cache.json")
	if err := e.Cache.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f cacheFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func writeCacheFile(t *testing.T, f cacheFile) string {
	t.Helper()
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cache.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCacheFileRejectsCorruptEntries: a cache file whose measurement
// vectors are empty is refused at load with an error naming the file and
// the key, and a group entry with fewer values than apps fails the
// measurement that reads it. Both used to index past the end and panic.
func TestCacheFileRejectsCorruptEntries(t *testing.T) {
	f := savedCache(t)

	empty := cacheFile{Version: f.Version, Entries: map[string][]float64{}}
	for k := range f.Entries {
		empty.Entries[k] = []float64{}
	}
	path := writeCacheFile(t, empty)
	e := newBatchEnv(t, 2, false)
	err := e.Cache.LoadFile(path)
	if err == nil {
		runBatched(t, e)
		t.Fatal("LoadFile accepted a file of empty measurement vectors")
	}
	named := false
	for k := range empty.Entries {
		named = named || strings.Contains(err.Error(), fmt.Sprintf("%q", k))
	}
	if !strings.Contains(err.Error(), path) || !named {
		t.Errorf("error %q does not name the file and the key", err)
	}
	if e.Cache.Len() != 0 {
		t.Errorf("rejected file merged %d entries", e.Cache.Len())
	}

	short := cacheFile{Version: f.Version, Entries: map[string][]float64{}}
	groups := 0
	for k, v := range f.Entries {
		if strings.Contains(k, "|group|") {
			v, groups = v[:1], groups+1
		}
		short.Entries[k] = v
	}
	if groups == 0 {
		t.Fatal("the suite saved no group entries")
	}
	path = writeCacheFile(t, short)
	a, b, c, _ := batchSuite(t)
	apps := []workloads.Workload{a, b, c}

	serial := newBatchEnv(t, 1, false)
	if err := serial.Cache.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := serial.RunGroup(apps, 8); err == nil {
		t.Error("RunGroup accepted a group entry shorter than its app count")
	}

	batched := newBatchEnv(t, 2, false)
	if err := batched.Cache.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	bt := batched.NewBatch()
	g := bt.Group(apps, 8)
	if err := bt.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Outcomes(); err == nil {
		t.Error("Batch.Group accepted a group entry shorter than its app count")
	}
}

// FuzzCacheLoadFile: any file content either fails LoadFile with an error
// or merges cleanly — every merged entry non-empty and the merged cache
// saving and reloading to the same size — and never panics.
func FuzzCacheLoadFile(f *testing.F) {
	seed := func() []byte {
		e, err := NewEnv(cluster.Default(), 77)
		if err != nil {
			f.Fatal(err)
		}
		e.Reps = 1
		e.Cache = NewCache()
		a, err := workloads.ByName("M.lmps")
		if err != nil {
			f.Fatal(err)
		}
		if _, err := e.NormalizedWithBubbles(a, []float64{5, 0}); err != nil {
			f.Fatal(err)
		}
		path := filepath.Join(f.TempDir(), "seed.json")
		if err := e.Cache.SaveFile(path); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}()
	f.Add(seed)
	f.Add([]byte(`{"version":1,"entries":{"k":[]}}`))
	f.Add([]byte(`{"version":1,"entries":{"k":null}}`))
	f.Add([]byte(`{"version":2,"entries":{"k":[]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "cache.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c := NewCache()
		if err := c.LoadFile(path); err != nil {
			return
		}
		for k, v := range c.entries {
			if len(v) == 0 {
				t.Fatalf("merged an empty vector under %q", k)
			}
		}
		out := filepath.Join(t.TempDir(), "out.json")
		if err := c.SaveFile(out); err != nil {
			t.Fatal(err)
		}
		r := NewCache()
		if err := r.LoadFile(out); err != nil {
			t.Fatalf("reloading a merged cache: %v", err)
		}
		if r.Len() != c.Len() {
			t.Fatalf("reloaded %d entries, merged %d", r.Len(), c.Len())
		}
	})
}
