package campaign

import (
	"bytes"
	"container/list"
	"encoding/gob"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/faultsim"
)

// Cache is the content-addressed result store: canonical report bytes
// keyed by job Key, an in-memory LRU backed by an optional disk store.
// Because keys are content addresses — equal key implies equal bytes —
// eviction and crash loss are always safe: the worst case is
// re-simulating, never serving a wrong result. Entries store the
// canonical encoding rather than decoded reports so a cache hit returns
// the exact bytes the first computation produced (the byte-identity the
// end-to-end tests assert), and so disk and memory agree trivially.
//
// Cache is safe for concurrent use.
type Cache struct {
	mu     sync.Mutex
	cap    int
	lru    *list.List // front = most recent; values are *cacheEntry
	byKey  map[Key]*list.Element
	dir    string // "" = memory only
	hits   uint64
	misses uint64
	disk   uint64 // hits served from the disk store
}

type cacheEntry struct {
	key   Key
	bytes []byte
}

// NewCache builds a cache holding up to capacity reports in memory
// (default 1024 when capacity <= 0), persisted under dir when non-empty
// (created if missing; files named <key>.report survive restarts).
func NewCache(capacity int, dir string) (*Cache, error) {
	if capacity <= 0 {
		capacity = 1024
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("campaign: cache dir: %w", err)
		}
	}
	return &Cache{
		cap:   capacity,
		lru:   list.New(),
		byKey: make(map[Key]*list.Element),
		dir:   dir,
	}, nil
}

// Get returns the canonical report bytes cached under key, or nil. The
// returned slice is shared — callers must not mutate it.
//
// The disk fallback reads outside the mutex: holding c.mu across
// os.ReadFile would stall every concurrent Get (including pure memory
// hits for other keys) behind one slow disk read. Dropping the lock
// means another Get can race us to the same key; the re-check after the
// read classifies that case as a plain memory hit, keeping the
// hit/miss/disk counters exact — one promotion, no double insert.
func (c *Cache) Get(key Key) []byte {
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		b := el.Value.(*cacheEntry).bytes
		c.mu.Unlock()
		return b
	}
	if c.dir == "" {
		c.misses++
		c.mu.Unlock()
		return nil
	}
	c.mu.Unlock()
	b, err := os.ReadFile(c.diskPath(key))
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		// A racing Get or Put inserted the key while we were on disk:
		// serve memory. Content addressing makes the bytes equal, so it
		// does not matter whose copy wins.
		c.lru.MoveToFront(el)
		c.hits++
		return el.Value.(*cacheEntry).bytes
	}
	if err != nil {
		c.misses++
		return nil
	}
	c.insert(key, b)
	c.hits++
	c.disk++
	return b
}

// Put stores the canonical report bytes under key. Storing a key twice
// is a no-op: content addressing guarantees the bytes are equal, and the
// first write wins keeps the disk file stable.
func (c *Cache) Put(key Key, b []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.byKey[key]; !ok {
		c.insert(key, b)
	}
	if c.dir == "" {
		return nil
	}
	path := c.diskPath(key)
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	return atomicWrite(path, b)
}

// insert adds an entry at the LRU front, evicting from the back past
// capacity. Callers hold c.mu.
func (c *Cache) insert(key Key, b []byte) {
	c.byKey[key] = c.lru.PushFront(&cacheEntry{key: key, bytes: b})
	for c.lru.Len() > c.cap {
		el := c.lru.Back()
		c.lru.Remove(el)
		delete(c.byKey, el.Value.(*cacheEntry).key)
	}
}

func (c *Cache) diskPath(key Key) string {
	return filepath.Join(c.dir, string(key)+".report")
}

// CacheStats is a point-in-time counter snapshot.
type CacheStats struct {
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	DiskHits uint64 `json:"diskhits"`
	Entries  int    `json:"entries"`
}

// Stats snapshots the hit/miss counters — the observable the CI smoke
// asserts when it replays a job set against a warm server.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, DiskHits: c.disk, Entries: c.lru.Len()}
}

// atomicWrite writes b to path via a same-directory temp file + rename,
// so concurrent writers and crashes never leave a torn file.
func atomicWrite(path string, b []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// CheckpointStore persists FaultSim window checkpoints by job key: in
// memory, and as gob files under dir when configured — the form that
// survives a killed server process. Stored checkpoints are owned by the
// store.
//
// CheckpointStore is safe for concurrent use (distinct keys; the
// campaign server never runs two jobs with the same key concurrently).
type CheckpointStore struct {
	mu  sync.Mutex
	dir string
	mem map[Key]*faultsim.Checkpoint
}

// NewCheckpointStore builds a checkpoint store, persisted under dir when
// non-empty (created if missing).
func NewCheckpointStore(dir string) (*CheckpointStore, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("campaign: checkpoint dir: %w", err)
		}
	}
	return &CheckpointStore{dir: dir, mem: make(map[Key]*faultsim.Checkpoint)}, nil
}

func (st *CheckpointStore) path(key Key) string {
	return filepath.Join(st.dir, string(key)+".ckpt")
}

// Save records the checkpoint for a job, replacing any previous one.
func (st *CheckpointStore) Save(key Key, ck *faultsim.Checkpoint) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.mem[key] = ck
	if st.dir == "" {
		return nil
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
		return err
	}
	return atomicWrite(st.path(key), buf.Bytes())
}

// Load returns the stored checkpoint for a job, or (nil, nil) when none
// exists. Memory wins over disk; a disk checkpoint survives the process
// that wrote it.
func (st *CheckpointStore) Load(key Key) (*faultsim.Checkpoint, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if ck, ok := st.mem[key]; ok {
		return ck, nil
	}
	if st.dir == "" {
		return nil, nil
	}
	f, err := os.Open(st.path(key))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ck := new(faultsim.Checkpoint)
	if err := gob.NewDecoder(f).Decode(ck); err != nil {
		return nil, fmt.Errorf("campaign: decoding checkpoint %s: %w", key, err)
	}
	st.mem[key] = ck
	return ck, nil
}

// Drop removes a job's checkpoint (no-op when absent) — called when the
// job completes or its checkpoint proves stale.
func (st *CheckpointStore) Drop(key Key) {
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.mem, key)
	if st.dir != "" {
		os.Remove(st.path(key))
	}
}
