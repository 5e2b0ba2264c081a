// Sharded: the cluster-wide layer over the single-node Store. Keys
// hash-partition across the live member set with rendezvous (HRW)
// hashing at a fixed replication factor: every node independently
// computes the same owner list for a key, so there is no directory
// service and no placement metadata to replicate — the member list IS
// the placement function. SHA-256 content addresses make artifacts
// location-independent: any replica of a key holds the same bytes, so
// reads may be served by whichever owner answers and concurrent or
// repeated writes are idempotent (first-writer-wins, and every writer
// writes identical bytes by construction).
//
// Read path: local store first (every node keeps a read-through cache
// of artifacts it has touched, owner or not), then the key's owners in
// HRW order, then — as a correctness backstop against stale member
// views — the remaining live members. A hit found on a later replica
// is repaired onto the owners that missed before it, so replication
// converges back to the configured factor after a node death.
//
// Write path: the local store always (the computing node's own cache
// and, when it is an owner, its authoritative replica), plus a remote
// put to every other owner. The write succeeds if at least one
// authoritative replica holds the bytes.
//
// Single-flight becomes cluster-wide in two layers: the coordinator's
// lease table issues at most one active lease per content address
// across the whole cluster (see internal/cluster), and within a node
// the local store's flight table coalesces as before. Residual races —
// an expired lease re-issued while the original worker still runs —
// are harmless because both computations produce identical bytes.
//
// Prefix checkpoints stay node-local: they are a latency optimization
// with no effect on artifact bytes, so replicating them buys nothing.
package castore

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/rendezvous"
	"repro/internal/tracez"
)

// ShardPathPrefix is the URL prefix of the shard transport every
// cluster node mounts (see RegisterShard).
const ShardPathPrefix = "/v1/shard/"

// maxShardBody bounds replica-put bodies; run artifacts are tens of
// kilobytes, so 64 MiB is generous headroom, not a real limit.
const maxShardBody = 64 << 20

// MembersFunc returns the current live member base URLs, including
// the calling node itself. The sharded store calls it on every
// operation, so membership changes take effect immediately.
type MembersFunc func() []string

// Sharded is a cluster-wide content-addressed store: a local Store
// plus remote peers addressed by rendezvous hashing.
type Sharded struct {
	local   *Store
	self    string // this node's base URL, as it appears in the member list
	members MembersFunc
	rf      int
	client  *http.Client

	remoteHits    atomic.Uint64
	remoteMisses  atomic.Uint64
	repairs       atomic.Uint64
	remotePuts    atomic.Uint64
	remotePutErrs atomic.Uint64

	// onRepair, if set, observes each successful read-through repair
	// (the cluster worker forwards them into the event journal).
	onRepair func(key, node string)
}

// SetRepairHook registers a callback invoked after each successful
// read-through repair with the repaired key and the owner node that
// received the copy. Must be set before the store is shared.
func (s *Sharded) SetRepairHook(fn func(key, node string)) { s.onRepair = fn }

// NewSharded layers cluster-wide sharding over local. self is this
// node's base URL exactly as other members will list it; members
// yields the live member set (self included); rf is the replication
// factor (<= 0 selects 2). client may be nil for a default with a 15s
// timeout.
func NewSharded(local *Store, self string, members MembersFunc, rf int, client *http.Client) *Sharded {
	if rf <= 0 {
		rf = 2
	}
	if client == nil {
		client = &http.Client{Timeout: 15 * time.Second}
	}
	return &Sharded{local: local, self: self, members: members, rf: rf, client: client}
}

// Local returns the node-local store under the shard layer (the store
// RegisterShard serves to peers).
func (s *Sharded) Local() *Store { return s.local }

// Self returns this node's member URL.
func (s *Sharded) Self() string { return s.self }

// Replicas returns the configured replication factor.
func (s *Sharded) Replicas() int { return s.rf }

// Owners returns key's owner list under the current member set.
func (s *Sharded) Owners(key string) []string {
	return rendezvous.Owners(key, s.members(), s.rf)
}

// Get returns the artifact for key from the local store, the key's
// owners, or any other live member (stale-placement backstop). Remote
// hits are cached locally and repaired onto owners that missed.
func (s *Sharded) Get(key string) ([]byte, bool, error) {
	return s.getCtx(context.Background(), key, s.local.Get)
}

// getCtx is Get with trace propagation: when ctx carries a sampled
// span AND the local probe misses, the remote probe sequence runs
// under a "shard-get" child whose traceparent travels on every peer
// request. The local-hit fast path does no tracing work at all.
// localGet is the local probe: Get counts its miss, GetOrCompute
// probes uncounted because the local store counts the miss once it
// commits to computing.
func (s *Sharded) getCtx(ctx context.Context, key string, localGet func(string) ([]byte, bool, error)) ([]byte, bool, error) {
	if data, ok, err := localGet(key); err != nil || ok {
		return data, ok, err
	}
	sp := tracez.FromContext(ctx).Child("shard-get")
	sp.SetAttr("key", shortKey(key))
	defer sp.End()
	members := s.members()
	owners := rendezvous.Owners(key, members, s.rf)
	// Probe owners first, then the rest of the membership; track the
	// owners that missed so a later hit can repair them.
	probed := map[string]bool{s.self: true}
	var missedOwners []string
	try := func(node string) ([]byte, bool) {
		if probed[node] {
			return nil, false
		}
		probed[node] = true
		data, ok, err := s.remoteGet(ctx, sp, node, key)
		if err != nil || !ok {
			s.remoteMisses.Add(1)
			return nil, false
		}
		s.remoteHits.Add(1)
		return data, true
	}
	finish := func(source string, data []byte) ([]byte, bool, error) {
		// Read-through: cache locally, then repair the owners that
		// missed before this replica answered (best-effort). The local
		// put doubles as the self-repair when this node is an owner.
		sp.SetAttr("source", source)
		s.local.Put(key, data)
		for _, o := range missedOwners {
			if o == s.self {
				s.repairs.Add(1)
				if s.onRepair != nil {
					s.onRepair(key, o)
				}
				continue
			}
			rsp := sp.Child("shard-repair")
			rsp.SetAttr("target", o)
			err := s.remotePut(ctx, rsp, o, key, data)
			rsp.End()
			if err == nil {
				s.repairs.Add(1)
				if s.onRepair != nil {
					s.onRepair(key, o)
				}
			}
		}
		return data, true, nil
	}
	for _, o := range owners {
		if o == s.self {
			missedOwners = append(missedOwners, o)
			continue
		}
		if data, ok := try(o); ok {
			return finish(o, data)
		}
		missedOwners = append(missedOwners, o)
	}
	for _, m := range members {
		if data, ok := try(m); ok {
			return finish(m, data)
		}
	}
	sp.SetAttr("result", "miss")
	return nil, false, nil
}

// shortKey truncates a content address for span attrs and logs.
func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

// Put stores the artifact locally and on every remote owner. It fails
// only when no authoritative replica could be written (self is not an
// owner and every remote owner put failed) — with at least one owner
// holding the bytes, read-through repair restores the rest.
func (s *Sharded) Put(key string, data []byte) error {
	if err := s.local.Put(key, data); err != nil {
		return err
	}
	owners := s.Owners(key)
	authoritative := 0
	var lastErr error
	for _, o := range owners {
		if o == s.self {
			authoritative++
			continue
		}
		s.remotePuts.Add(1)
		if err := s.remotePut(context.Background(), nil, o, key, data); err != nil {
			s.remotePutErrs.Add(1)
			lastErr = err
			continue
		}
		authoritative++
	}
	if authoritative == 0 && len(owners) > 0 {
		return fmt.Errorf("castore: no replica of %s written: %w", key[:12], lastErr)
	}
	return nil
}

// GetOrCompute returns the artifact for key, computing it on a
// cluster-wide miss. The compute runs under the local store's
// single-flight lock and its result replicates to the key's owners
// before the call returns.
func (s *Sharded) GetOrCompute(ctx context.Context, key string, compute func(context.Context) ([]byte, error)) ([]byte, bool, error) {
	if data, ok, err := s.getCtx(ctx, key, s.local.lookup); err != nil {
		return nil, false, err
	} else if ok {
		return data, true, nil
	}
	return s.local.GetOrCompute(ctx, key, func(ctx context.Context) ([]byte, error) {
		data, err := compute(ctx)
		if err != nil {
			return nil, err
		}
		// Replicate to remote owners here (the local store persists its
		// own copy when this callback returns). Failing every
		// authoritative replica fails the compute: the caller's task
		// re-runs later rather than completing with an unreachable
		// artifact.
		owners := s.Owners(key)
		rsp := tracez.FromContext(ctx).Child("shard-replicate")
		rsp.SetAttr("key", shortKey(key))
		defer rsp.End()
		authoritative := 0
		var lastErr error
		for _, o := range owners {
			if o == s.self {
				authoritative++
				continue
			}
			s.remotePuts.Add(1)
			if err := s.remotePut(ctx, rsp, o, key, data); err != nil {
				s.remotePutErrs.Add(1)
				lastErr = err
				continue
			}
			authoritative++
		}
		if authoritative == 0 && len(owners) > 0 {
			return nil, fmt.Errorf("castore: no replica of %s written: %w", key[:12], lastErr)
		}
		return data, nil
	})
}

// BestCheckpoint and PutCheckpoint delegate to the node-local store:
// prefix checkpoints are a local latency optimization (see the package
// comment above).
func (s *Sharded) BestCheckpoint(base string, horizon uint64) (CheckpointMeta, []byte, bool, error) {
	return s.local.BestCheckpoint(base, horizon)
}

// PutCheckpoint stores a checkpoint blob in the node-local store.
func (s *Sharded) PutCheckpoint(base string, meta CheckpointMeta, data []byte) error {
	return s.local.PutCheckpoint(base, meta, data)
}

// Stats returns the local store's counters with the shard layer's
// remote counters filled in.
func (s *Sharded) Stats() Stats {
	st := s.local.Stats()
	st.RemoteHits = s.remoteHits.Load()
	st.RemoteMisses = s.remoteMisses.Load()
	st.Repairs = s.repairs.Load()
	st.RemotePuts = s.remotePuts.Load()
	st.RemotePutErrors = s.remotePutErrs.Load()
	return st
}

// ---- shard transport ----

// remoteGet fetches key from node's local shard. A 404 is a miss, any
// other non-2xx an error. A sampled sp stamps its traceparent on the
// request so the peer's access log can correlate.
func (s *Sharded) remoteGet(ctx context.Context, sp *tracez.Span, node, key string) ([]byte, bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, node+ShardPathPrefix+key, nil)
	if err != nil {
		return nil, false, err
	}
	if tp := tracez.Traceparent(sp); tp != "" {
		req.Header.Set("traceparent", tp)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, resp.Body)
		return nil, false, nil
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, false, fmt.Errorf("castore: shard get %s from %s: %s", key[:12], node, resp.Status)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxShardBody))
	if err != nil {
		return nil, false, err
	}
	return data, true, nil
}

// remotePut stores key on node's local shard.
func (s *Sharded) remotePut(ctx context.Context, sp *tracez.Span, node, key string, data []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, node+ShardPathPrefix+key, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if tp := tracez.Traceparent(sp); tp != "" {
		req.Header.Set("traceparent", tp)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("castore: shard put %s to %s: %s", key[:12], node, resp.Status)
	}
	return nil
}

// RegisterShard mounts the shard transport for local on mux: peers
// read and write this node's replica set directly against its local
// store (never through its sharded view, which would recurse across
// the cluster). node is this node's advertised URL, stamped on every
// response as X-Esteem-Node ("" omits the header).
func RegisterShard(mux *http.ServeMux, local *Store, node string) {
	stamp := func(w http.ResponseWriter) {
		if node != "" {
			w.Header().Set("X-Esteem-Node", node)
		}
	}
	mux.HandleFunc("GET "+ShardPathPrefix+"{key}", func(w http.ResponseWriter, r *http.Request) {
		stamp(w)
		key := r.PathValue("key")
		if !ValidKey(key) {
			http.Error(w, "malformed shard key", http.StatusBadRequest)
			return
		}
		data, ok, err := local.Get(key)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if !ok {
			http.Error(w, "not found", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(data)
	})
	mux.HandleFunc("PUT "+ShardPathPrefix+"{key}", func(w http.ResponseWriter, r *http.Request) {
		stamp(w)
		key := r.PathValue("key")
		if !ValidKey(key) {
			http.Error(w, "malformed shard key", http.StatusBadRequest)
			return
		}
		data, err := io.ReadAll(io.LimitReader(r.Body, maxShardBody+1))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if len(data) > maxShardBody {
			http.Error(w, "artifact too large", http.StatusRequestEntityTooLarge)
			return
		}
		if err := local.Put(key, data); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
}
