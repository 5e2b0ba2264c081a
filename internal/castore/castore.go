// Package castore is the content-addressed result store behind the
// serving layer and cmd/esteem-bench's -cache flag: simulation
// artifacts keyed by the SHA-256 of the canonical JSON encoding of
// everything that determines the run's outcome (full configuration,
// workload, artifact schema version).
//
// The store is layered:
//
//   - an in-memory LRU of recently touched artifacts (bounded entry
//     count) absorbs repeated fetches without I/O;
//   - a disk layer of one canonical-JSON file per key (written with a
//     temp-file + rename so a crash never leaves a torn artifact)
//     makes results survive restarts and stay byte-identical to the
//     run that produced them;
//   - a single-flight layer (GetOrCompute) coalesces concurrent
//     requests for the same key into one computation, so N clients
//     submitting the same job cost one simulation.
//
// Because the simulator is deterministic and artifacts are stored with
// deterministic manifests, a cache hit returns bytes identical to what
// a fresh run of the same job would produce (modulo nothing).
package castore

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tracez"
)

// KeySchemaVersion is folded into every key so that incompatible
// changes to the key material or the artifact layout invalidate old
// cache entries instead of serving stale shapes. Bump it together
// with obs.SchemaVersion changes.
const KeySchemaVersion = 1

// keyMaterial is the canonical description of one simulation unit.
// Hashing its canonical JSON — rather than a hand-rolled string —
// means every configuration field participates automatically and new
// fields change the key (new fields default to the zero value, which
// also changes the encoding, so stale hits are impossible).
type keyMaterial struct {
	KeySchema      int        `json:"key_schema"`
	ArtifactSchema int        `json:"artifact_schema"`
	Config         sim.Config `json:"config"`
	Workload       []string   `json:"workload"`
}

// Key returns the content address of the simulation unit (cfg,
// workload). cfg must be the effective configuration — after any
// per-job seed derivation — since the seed changes the run.
func Key(cfg sim.Config, workload []string) (string, error) {
	b, err := obs.MarshalCanonical(keyMaterial{
		KeySchema:      KeySchemaVersion,
		ArtifactSchema: obs.SchemaVersion,
		Config:         cfg,
		Workload:       workload,
	})
	if err != nil {
		return "", fmt.Errorf("castore: encoding key material: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// keyPattern is the shape of a valid key: 64 lowercase hex digits.
var keyPattern = regexp.MustCompile(`^[0-9a-f]{64}$`)

// ValidKey reports whether s has the shape of a store key. Handlers
// use it to reject path traversal before touching the filesystem.
func ValidKey(s string) bool { return keyPattern.MatchString(s) }

// Backend is the store interface the runner and serving layers
// consume: a plain single-node *Store, or a *Sharded store that
// hash-partitions keys across cluster members (see shard.go). Both
// return byte-identical artifacts for equal keys — the sharded layer
// only changes where bytes live, never what they are.
type Backend interface {
	// Get returns the artifact bytes for key (ok false on a miss).
	Get(key string) (data []byte, ok bool, err error)
	// Put stores the artifact bytes under key.
	Put(key string, data []byte) error
	// GetOrCompute returns the artifact for key, computing and storing
	// it on a miss with single-flight coalescing.
	GetOrCompute(ctx context.Context, key string, compute func(context.Context) ([]byte, error)) (data []byte, cached bool, err error)
	// BestCheckpoint and PutCheckpoint expose the prefix-checkpoint
	// layer (see checkpoint.go).
	BestCheckpoint(base string, horizon uint64) (meta CheckpointMeta, data []byte, ok bool, err error)
	PutCheckpoint(base string, meta CheckpointMeta, data []byte) error
	// Stats returns a snapshot of the store's counters.
	Stats() Stats
}

// Stats is a snapshot of the store's counters.
type Stats struct {
	// Hits counts Get/GetOrCompute calls satisfied from the store
	// (MemHits from the LRU, DiskHits from the artifact directory).
	Hits, MemHits, DiskHits uint64
	// Misses counts lookups that found nothing and did not coalesce
	// onto another caller's flight (those count as Coalesced only).
	Misses uint64
	// Computes counts compute callbacks actually executed (the number
	// of simulations the single-flight layer let through).
	Computes uint64
	// Coalesced counts GetOrCompute callers that waited on another
	// caller's in-flight computation instead of running their own.
	Coalesced uint64
	// PrefixHits and PrefixMisses count BestCheckpoint lookups that
	// found (respectively, failed to find) a usable prefix checkpoint;
	// PrefixSavedInstr accumulates the measured instructions each hit
	// let the resuming run skip (the hit's minimum per-core measured
	// count). See checkpoint.go.
	PrefixHits, PrefixMisses, PrefixSavedInstr uint64
	// Remote-shard counters, populated only by the Sharded layer (see
	// shard.go); always zero on a plain single-node Store. RemoteHits/
	// RemoteMisses count lookups answered by (respectively, missed on)
	// peer shards; Repairs counts read-through replication repairs
	// (re-writing an artifact to an owner that should have held it);
	// RemotePuts/RemotePutErrors count replica writes attempted and
	// failed.
	RemoteHits, RemoteMisses, Repairs, RemotePuts, RemotePutErrors uint64
}

// Store is a content-addressed artifact store. The zero value is not
// usable; construct with Open.
type Store struct {
	dir        string // "" = memory-only
	maxEntries int

	mu      sync.Mutex
	entries map[string]*list.Element // key -> element in order
	order   *list.List               // front = most recently used
	flights map[string]*flight

	// Prefix-checkpoint layer (see checkpoint.go). ckptMu serialises
	// index read-merge-write cycles; the maps back a memory-only store.
	ckptMu    sync.Mutex
	ckptIdx   map[string][]CheckpointMeta
	ckptBlobs map[string][]byte

	memHits      atomic.Uint64
	diskHits     atomic.Uint64
	misses       atomic.Uint64
	computes     atomic.Uint64
	coalesced    atomic.Uint64
	prefixHits   atomic.Uint64
	prefixMisses atomic.Uint64
	prefixSaved  atomic.Uint64
}

// entry is one cached artifact in the LRU layer.
type entry struct {
	key  string
	data []byte
}

// flight is one in-progress computation other callers can wait on.
type flight struct {
	done chan struct{}
	data []byte
	err  error
}

// Open returns a store over dir (created if needed) with an in-memory
// LRU of at most maxEntries artifacts. An empty dir selects a
// memory-only store (no persistence); maxEntries <= 0 selects the
// default of 256.
func Open(dir string, maxEntries int) (*Store, error) {
	if maxEntries <= 0 {
		maxEntries = 256
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("castore: %w", err)
		}
	}
	return &Store{
		dir:        dir,
		maxEntries: maxEntries,
		entries:    make(map[string]*list.Element),
		order:      list.New(),
		flights:    make(map[string]*flight),
		ckptIdx:    make(map[string][]CheckpointMeta),
		ckptBlobs:  make(map[string][]byte),
	}, nil
}

// Dir returns the disk directory ("" for a memory-only store).
func (s *Store) Dir() string { return s.dir }

// Path returns the disk path an artifact for key lives at ("" for a
// memory-only store).
func (s *Store) Path(key string) string {
	if s.dir == "" {
		return ""
	}
	return filepath.Join(s.dir, key+".json")
}

// touch inserts (or refreshes) key in the LRU, evicting the coldest
// entry beyond capacity. Evicted artifacts remain on disk. Caller
// must hold s.mu.
func (s *Store) touch(key string, data []byte) {
	if el, ok := s.entries[key]; ok {
		s.order.MoveToFront(el)
		el.Value.(*entry).data = data
		return
	}
	s.entries[key] = s.order.PushFront(&entry{key: key, data: data})
	for s.order.Len() > s.maxEntries {
		el := s.order.Back()
		s.order.Remove(el)
		delete(s.entries, el.Value.(*entry).key)
	}
}

// Get returns the artifact bytes for key from the LRU or disk. The
// returned slice must not be modified. ok is false on a miss; err is
// non-nil only for real I/O failures (a missing file is a miss).
func (s *Store) Get(key string) (data []byte, ok bool, err error) {
	data, ok, err = s.lookup(key)
	if err == nil && !ok {
		s.misses.Add(1)
	}
	return data, ok, err
}

// lookup is Get without miss accounting (hits are always counted):
// GetOrCompute counts its miss only once it commits to computing, so a
// caller that coalesces or finds the artifact on re-check is no miss.
func (s *Store) lookup(key string) (data []byte, ok bool, err error) {
	s.mu.Lock()
	if el, hit := s.entries[key]; hit {
		s.order.MoveToFront(el)
		data = el.Value.(*entry).data
		s.mu.Unlock()
		s.memHits.Add(1)
		return data, true, nil
	}
	s.mu.Unlock()
	if s.dir == "" {
		return nil, false, nil
	}
	data, err = os.ReadFile(s.Path(key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("castore: reading %s: %w", key, err)
	}
	s.mu.Lock()
	s.touch(key, data)
	s.mu.Unlock()
	s.diskHits.Add(1)
	return data, true, nil
}

// Put stores the artifact bytes under key, atomically on disk (temp
// file + rename) and in the LRU. Concurrent Puts for the same key are
// safe: last rename wins and both contents are identical by
// construction (the key is a hash of everything that determines them).
func (s *Store) Put(key string, data []byte) error {
	if s.dir != "" {
		if err := s.writeAtomic(key, s.Path(key), data); err != nil {
			return err
		}
	}
	s.mu.Lock()
	s.touch(key, data)
	s.mu.Unlock()
	return nil
}

// writeAtomic writes data to path via a temp file + rename so a crash
// never leaves a torn file. name labels errors.
func (s *Store) writeAtomic(name, path string, data []byte) error {
	tmp, err := os.CreateTemp(s.dir, "."+name+".tmp-*")
	if err != nil {
		return fmt.Errorf("castore: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("castore: writing %s: %w", name, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("castore: writing %s: %w", name, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("castore: %w", err)
	}
	return nil
}

// GetOrCompute returns the artifact for key, computing and storing it
// on a miss. Concurrent calls for the same key coalesce: exactly one
// caller runs compute while the others wait for its outcome (or their
// context). cached reports whether the result came from the store or
// a coalesced flight rather than this caller's own computation.
//
// A compute error is returned to every coalesced waiter but is not
// cached: the next GetOrCompute after the flight drains retries.
// Cancellation of a waiter's ctx abandons the wait without disturbing
// the computation; cancellation of the computing caller's ctx is
// compute's own business (it receives ctx).
func (s *Store) GetOrCompute(ctx context.Context, key string, compute func(context.Context) ([]byte, error)) (data []byte, cached bool, err error) {
	// Tracing: a span per store phase (lookup, coalesced wait,
	// persist), nil-safe and free when the context carries no span.
	sp := tracez.FromContext(ctx)
	lsp := sp.Child("store-get")
	data, ok, err := s.lookup(key)
	lsp.SetAttr("hit", strconv.FormatBool(ok && err == nil))
	lsp.End()
	if err != nil {
		return nil, false, err
	} else if ok {
		return data, true, nil
	}

	s.mu.Lock()
	if f, ok := s.flights[key]; ok {
		s.mu.Unlock()
		s.coalesced.Add(1)
		wsp := sp.Child("store-coalesce")
		defer wsp.End()
		select {
		case <-f.done:
			return f.data, true, f.err
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	s.flights[key] = f
	s.mu.Unlock()

	// Re-check the store: another process (or an earlier flight that
	// drained between our Get and the flight registration) may have
	// persisted the artifact already.
	if data, ok, gerr := s.lookup(key); gerr != nil || ok {
		f.data, f.err = data, gerr
		s.settle(key, f)
		return data, ok, gerr
	}

	s.misses.Add(1)
	s.computes.Add(1)
	data, err = compute(ctx)
	if err == nil {
		psp := sp.Child("store-put")
		psp.SetAttrInt("bytes", int64(len(data)))
		if perr := s.Put(key, data); perr != nil {
			err = perr
		}
		psp.End()
	}
	f.data, f.err = data, err
	s.settle(key, f)
	return data, false, err
}

// settle publishes a flight's outcome and removes it from the table.
func (s *Store) settle(key string, f *flight) {
	s.mu.Lock()
	delete(s.flights, key)
	s.mu.Unlock()
	close(f.done)
}

// Len returns the number of artifacts currently in the memory layer.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.order.Len()
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	mem, disk := s.memHits.Load(), s.diskHits.Load()
	return Stats{
		Hits:             mem + disk,
		MemHits:          mem,
		DiskHits:         disk,
		Misses:           s.misses.Load(),
		Computes:         s.computes.Load(),
		Coalesced:        s.coalesced.Load(),
		PrefixHits:       s.prefixHits.Load(),
		PrefixMisses:     s.prefixMisses.Load(),
		PrefixSavedInstr: s.prefixSaved.Load(),
	}
}

// Summary renders the stats as the one-line report cmd/esteem-bench
// prints for -cache-stats.
func (st Stats) Summary() string {
	s := fmt.Sprintf("%d hits (%d memory, %d disk), %d misses, %d computed, %d coalesced",
		st.Hits, st.MemHits, st.DiskHits, st.Misses, st.Computes, st.Coalesced)
	if st.PrefixHits > 0 || st.PrefixMisses > 0 {
		s += fmt.Sprintf(", %d prefix-checkpoint hits (%d instructions skipped), %d prefix misses",
			st.PrefixHits, st.PrefixSavedInstr, st.PrefixMisses)
	}
	if st.RemoteHits > 0 || st.RemoteMisses > 0 || st.RemotePuts > 0 {
		s += fmt.Sprintf(", %d remote hits, %d remote misses, %d repairs, %d replica puts (%d failed)",
			st.RemoteHits, st.RemoteMisses, st.Repairs, st.RemotePuts, st.RemotePutErrors)
	}
	return s
}

// Compile-time interface checks: both store layers satisfy Backend.
var (
	_ Backend = (*Store)(nil)
	_ Backend = (*Sharded)(nil)
)
