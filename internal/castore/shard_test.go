package castore

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/rendezvous"
)

// shardNode is one test cluster node: a local store served over the
// real shard transport.
type shardNode struct {
	store *Store
	srv   *httptest.Server
}

func newShardNode(t *testing.T) *shardNode {
	t.Helper()
	store, err := Open(t.TempDir(), 32)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	RegisterShard(mux, store, "")
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return &shardNode{store: store, srv: srv}
}

// testCluster builds n nodes with a shared mutable member list.
type testCluster struct {
	nodes map[string]*shardNode
	mu    sync.Mutex
	live  []string
}

func newTestCluster(t *testing.T, n int) *testCluster {
	c := &testCluster{nodes: map[string]*shardNode{}}
	for i := 0; i < n; i++ {
		node := newShardNode(t)
		c.nodes[node.srv.URL] = node
		c.live = append(c.live, node.srv.URL)
	}
	return c
}

func (c *testCluster) members() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.live...)
}

func (c *testCluster) kill(url string) {
	c.mu.Lock()
	var out []string
	for _, m := range c.live {
		if m != url {
			out = append(out, m)
		}
	}
	c.live = out
	c.mu.Unlock()
	c.nodes[url].srv.Close()
}

func (c *testCluster) sharded(url string) *Sharded {
	return NewSharded(c.nodes[url].store, url, c.members, 2, nil)
}

func shardKey(i int) string {
	return fmt.Sprintf("%064x", uint64(i)*0x9E3779B97F4A7C15+7)
}

// TestShardedPutReplicates: a put lands on both owners and is readable
// from every node.
func TestShardedPutReplicates(t *testing.T) {
	c := newTestCluster(t, 3)
	writer := c.sharded(c.members()[0])
	for i := 0; i < 20; i++ {
		key := shardKey(i)
		data := []byte(fmt.Sprintf(`{"artifact":%d}`, i))
		if err := writer.Put(key, data); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		owners := rendezvous.Owners(key, c.members(), 2)
		for _, o := range owners {
			got, ok, err := c.nodes[o].store.Get(key)
			if err != nil || !ok {
				t.Fatalf("key %d: owner %s does not hold the artifact (ok=%v err=%v)", i, o, ok, err)
			}
			if string(got) != string(data) {
				t.Fatalf("key %d: owner %s holds wrong bytes", i, o)
			}
		}
		for _, m := range c.members() {
			got, ok, err := c.sharded(m).Get(key)
			if err != nil || !ok {
				t.Fatalf("key %d: member %s cannot read (ok=%v err=%v)", i, m, ok, err)
			}
			if string(got) != string(data) {
				t.Fatalf("key %d: member %s read wrong bytes", i, m)
			}
		}
	}
}

// TestShardedSurvivesNodeDeath: with replication factor 2, every
// artifact remains readable after any single node dies, and reads
// repair replication onto the new owner set.
func TestShardedSurvivesNodeDeath(t *testing.T) {
	c := newTestCluster(t, 3)
	members := c.members()
	writer := c.sharded(members[0])
	const n = 30
	for i := 0; i < n; i++ {
		if err := writer.Put(shardKey(i), []byte(fmt.Sprintf(`{"v":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	victim := members[2]
	c.kill(victim)
	// Read through a surviving node that was not the writer.
	reader := c.sharded(members[1])
	for i := 0; i < n; i++ {
		key := shardKey(i)
		data, ok, err := reader.Get(key)
		if err != nil || !ok {
			t.Fatalf("key %d unreadable after killing %s (ok=%v err=%v)", i, victim, ok, err)
		}
		if want := fmt.Sprintf(`{"v":%d}`, i); string(data) != want {
			t.Fatalf("key %d: wrong bytes after node death", i)
		}
		// After the read, the new owner set must hold the artifact
		// (read-through repair).
		for _, o := range rendezvous.Owners(key, c.members(), 2) {
			if _, ok, _ := c.nodes[o].store.Get(key); !ok {
				t.Fatalf("key %d: owner %s still missing the artifact after read-repair", i, o)
			}
		}
	}
	st := reader.Stats()
	if st.RemoteHits == 0 && st.Repairs == 0 {
		t.Fatalf("expected remote traffic after node death, got %+v", st)
	}
}

// TestShardedGetOrComputeCoalesces: concurrent GetOrCompute on one
// node computes once; a second node then reads the result without
// computing at all.
func TestShardedGetOrComputeCoalesces(t *testing.T) {
	c := newTestCluster(t, 3)
	members := c.members()
	a := c.sharded(members[0])
	key := shardKey(99)
	var computes atomic.Int64
	compute := func(context.Context) ([]byte, error) {
		computes.Add(1)
		return []byte(`{"computed":true}`), nil
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := a.GetOrCompute(context.Background(), key, compute); err != nil {
				t.Errorf("GetOrCompute: %v", err)
			}
		}()
	}
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("single-node coalescing broke: %d computes", got)
	}
	b := c.sharded(members[1])
	data, cached, err := b.GetOrCompute(context.Background(), key, compute)
	if err != nil {
		t.Fatal(err)
	}
	if !cached || computes.Load() != 1 {
		t.Fatalf("second node recomputed (cached=%v computes=%d)", cached, computes.Load())
	}
	if string(data) != `{"computed":true}` {
		t.Fatalf("second node read wrong bytes: %s", data)
	}
}

// TestShardedGetOrComputeCountsMissOnce: a cold GetOrCompute on a
// single-member cluster is one miss, as on a standalone store, and a
// plain Get miss still counts once.
func TestShardedGetOrComputeCountsMissOnce(t *testing.T) {
	c := newTestCluster(t, 1)
	s := c.sharded(c.members()[0])
	compute := func(context.Context) ([]byte, error) { return []byte(`{}`), nil }
	if _, cached, err := s.GetOrCompute(context.Background(), shardKey(1), compute); err != nil || cached {
		t.Fatalf("cold GetOrCompute: cached=%v err=%v", cached, err)
	}
	if got := s.Stats().Misses; got != 1 {
		t.Fatalf("cold GetOrCompute counted %d misses, want 1", got)
	}
	if _, ok, err := s.Get(shardKey(2)); err != nil || ok {
		t.Fatalf("Get of an absent key: ok=%v err=%v", ok, err)
	}
	if got := s.Stats().Misses; got != 2 {
		t.Fatalf("after one Get miss: %d misses, want 2", got)
	}
}

// TestShardedPutFailsWithNoReplica: when the node is not an owner and
// every owner is unreachable, Put must fail so the task re-runs
// instead of completing with an unreachable artifact.
func TestShardedPutFailsWithNoReplica(t *testing.T) {
	c := newTestCluster(t, 3)
	members := c.members()
	// Find a key NOT owned by members[0] so self cannot count as an
	// authoritative replica.
	var key string
	for i := 0; ; i++ {
		k := shardKey(i)
		owned := false
		for _, o := range rendezvous.Owners(k, members, 2) {
			if o == members[0] {
				owned = true
			}
		}
		if !owned {
			key = k
			break
		}
	}
	writer := c.sharded(members[0])
	c.kill(members[1])
	c.kill(members[2])
	// The member view still lists the dead nodes (stale view): puts to
	// them fail, self is not an owner, so the write must error.
	stale := func() []string { return members }
	writerStale := NewSharded(c.nodes[members[0]].store, members[0], stale, 2, nil)
	if err := writerStale.Put(key, []byte(`{}`)); err == nil {
		t.Fatal("Put succeeded with zero authoritative replicas")
	}
	// With a live view the write degrades to self-only membership and
	// self becomes an owner, so it succeeds.
	if err := writer.Put(key, []byte(`{}`)); err != nil {
		t.Fatalf("Put with self as sole member failed: %v", err)
	}
}

// TestShardedCheckpointsStayLocal: checkpoint blobs never cross the
// wire; they land in the node-local store only.
func TestShardedCheckpointsStayLocal(t *testing.T) {
	c := newTestCluster(t, 2)
	members := c.members()
	a := c.sharded(members[0])
	base := shardKey(5)
	if err := a.PutCheckpoint(base, CheckpointMeta{Seq: 0, MaxMeasured: 100}, []byte("blob")); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := a.BestCheckpoint(base, 1000); err != nil || !ok {
		t.Fatalf("local checkpoint not found (ok=%v err=%v)", ok, err)
	}
	b := c.sharded(members[1])
	if _, _, ok, _ := b.BestCheckpoint(base, 1000); ok {
		t.Fatal("checkpoint leaked to a peer node")
	}
}

// TestRegisterShardRejectsBadKeys: the transport validates key shape
// before touching the filesystem.
func TestRegisterShardRejectsBadKeys(t *testing.T) {
	node := newShardNode(t)
	resp, err := http.Get(node.srv.URL + ShardPathPrefix + "not-a-key")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad key: got %s, want 400", resp.Status)
	}
	resp, err = http.Get(node.srv.URL + ShardPathPrefix + shardKey(1))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing key: got %s, want 404", resp.Status)
	}
}
