package measure

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
)

// Cache is a content-addressed store of completed measurements. Keys are
// exact strings built by the Env key functions — environment fingerprint
// first, then the measurement kind and its bit-precise request parameters
// — so two requests share an entry only when a fresh measurement would be
// forced to produce the same value (background-interfered environments are
// the deliberate exception: their entries pin the value of the first nonce
// that computed one, which is the cross-experiment dedup the EC2 sweeps
// rely on; see docs/PERFORMANCE.md).
//
// A Cache is safe for concurrent use and may be shared across several
// environments and persisted to disk between runs with SaveFile/LoadFile.
type Cache struct {
	mu      sync.Mutex
	entries map[string][]float64
	hits    uint64
	misses  uint64
}

// NewCache returns an empty measurement cache.
func NewCache() *Cache {
	return &Cache{entries: map[string][]float64{}}
}

// get returns the stored vector for key. The returned slice is shared:
// callers must not mutate it.
func (c *Cache) get(key string) ([]float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.entries[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return v, ok
}

// put stores a measurement vector; first write wins so replayed
// measurements can never flip an entry.
func (c *Cache) put(key string, v []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; !ok {
		c.entries[key] = v
	}
}

// creditHit counts a hit that resolved without a lookup (a batch aliasing
// a duplicate request onto an in-flight twin).
func (c *Cache) creditHit() {
	c.mu.Lock()
	c.hits++
	c.mu.Unlock()
}

// Hits returns the number of lookups answered from the cache.
func (c *Cache) Hits() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits
}

// Misses returns the number of lookups that fell through to measurement.
func (c *Cache) Misses() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.misses
}

// Len returns the number of stored measurements.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// cacheFileVersion guards the on-disk format; keys additionally embed the
// environment fingerprint version ("v1|..."), so either bump invalidates
// stale files.
const cacheFileVersion = 1

type cacheFile struct {
	Version int                  `json:"version"`
	Entries map[string][]float64 `json:"entries"`
}

// SaveFile persists the cache as JSON. Go's JSON encoding round-trips
// float64 values exactly, so a reloaded cache replays bit-identical
// measurements.
func (c *Cache) SaveFile(path string) error {
	c.mu.Lock()
	f := cacheFile{Version: cacheFileVersion, Entries: c.entries}
	data, err := json.Marshal(f)
	c.mu.Unlock()
	if err != nil {
		return fmt.Errorf("measure: encoding cache: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// LoadFile merges a previously saved cache file into the cache. A missing
// file is not an error (first run); a version mismatch discards the file's
// contents rather than serving stale measurements. A file holding an
// empty measurement vector is rejected whole, before anything merges.
func (c *Cache) LoadFile(path string) error {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var f cacheFile
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("measure: decoding cache %s: %w", path, err)
	}
	if f.Version != cacheFileVersion {
		return nil
	}
	for k, v := range f.Entries {
		if len(v) == 0 {
			return fmt.Errorf("measure: cache %s: entry %q holds no values", path, k)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, v := range f.Entries {
		if _, ok := c.entries[k]; !ok {
			c.entries[k] = v
		}
	}
	return nil
}
