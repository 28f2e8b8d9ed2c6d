package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"amber/internal/gaddr"
)

// LeasedCounter is the mutable-caching fixture: a counter whose Get is
// declared read-only, so marking an instance cacheable lets remote readers
// hold lease copies of it.
type LeasedCounter struct{ N int }

func (c *LeasedCounter) Add(n int) int { c.N += n; return c.N }
func (c *LeasedCounter) Get() int      { return c.N }

// AmberReadOnly declares Get non-mutating.
func (c *LeasedCounter) AmberReadOnly() []string { return []string{"Get"} }

// newLeaseCluster builds a cluster with reader leases enabled at the given
// TTL and the lease fixture registered.
func newLeaseCluster(t testing.TB, nodes int, ttl time.Duration) *Cluster {
	t.Helper()
	cl, err := NewCluster(ClusterConfig{Nodes: nodes, ProcsPerNode: 2, LeaseTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	registerFixtures(t, cl)
	if err := cl.Register(&LeasedCounter{}); err != nil {
		t.Fatal(err)
	}
	return cl
}

// waitCounter polls until a node's counter reaches at least want (lease
// installs ride an asynchronous queue, so tests wait rather than assert
// immediately).
func waitCounter(t *testing.T, n *Node, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := n.Stats().Value(name); got >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("counter %s stuck at %d, want >= %d", name, n.Stats().Value(name), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// readUntilLeaseHit reads obj from node n until a read is served by a local
// lease copy (bounded; fails the test on timeout).
func readUntilLeaseHit(t *testing.T, cl *Cluster, n int, obj Ref, want int) {
	t.Helper()
	node := cl.Node(n)
	deadline := time.Now().Add(5 * time.Second)
	for {
		before := node.Stats().Value("lease_hits")
		out, err := node.Root().Invoke(obj, "Get")
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if out[0].(int) != want {
			t.Fatalf("Get = %v, want %d", out[0], want)
		}
		if node.Stats().Value("lease_hits") > before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no read was ever served by a local lease copy")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLeaseGrantServesLocalReads is the warm-read property for mutable
// objects: after the first remote read pulls a lease, repeated reads are
// served locally (zero messages) while the owner records the grant.
func TestLeaseGrantServesLocalReads(t *testing.T) {
	cl := newLeaseCluster(t, 2, 5*time.Second)
	owner := cl.Node(1).Root()
	ref, err := owner.New(&LeasedCounter{N: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.SetCacheable(ref); err != nil {
		t.Fatal(err)
	}
	readUntilLeaseHit(t, cl, 0, ref, 7)
	if g := cl.Node(1).Stats().Value("lease_grants"); g == 0 {
		t.Error("owner granted no lease")
	}
	if i := cl.Node(0).Stats().Value("lease_installs"); i == 0 {
		t.Error("reader installed no lease")
	}
	// The warm path must not touch the network: with the lease live, a read
	// burst adds zero shipped invokes.
	shipped := cl.Node(0).Stats().Value("invokes_shipped")
	for i := 0; i < 50; i++ {
		out, err := cl.Node(0).Root().Invoke(ref, "Get")
		if err != nil || out[0].(int) != 7 {
			t.Fatalf("warm Get = %v, %v", out, err)
		}
	}
	if after := cl.Node(0).Stats().Value("invokes_shipped"); after != shipped {
		t.Errorf("warm reads shipped %d messages, want 0", after-shipped)
	}
}

// TestLeaseWriteFenceInvalidates is the coherence half: once a write is
// acknowledged, no node may serve the old value, however recently it held a
// lease.
func TestLeaseWriteFenceInvalidates(t *testing.T) {
	cl := newLeaseCluster(t, 3, 5*time.Second)
	owner := cl.Node(2).Root()
	ref, err := owner.New(&LeasedCounter{})
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.SetCacheable(ref); err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= 5; v++ {
		// Both non-owner nodes pull leases of the current value.
		readUntilLeaseHit(t, cl, 0, ref, v-1)
		readUntilLeaseHit(t, cl, 1, ref, v-1)
		// Write from a rotating node: the ack must imply every lease copy is
		// fenced or revoked.
		out, err := cl.Node(v%3).Root().Invoke(ref, "Add", 1)
		if err != nil {
			t.Fatalf("Add: %v", err)
		}
		if out[0].(int) != v {
			t.Fatalf("Add = %v, want %d", out[0], v)
		}
		for n := 0; n < 3; n++ {
			got, err := cl.Node(n).Root().Invoke(ref, "Get")
			if err != nil {
				t.Fatalf("Get from node %d: %v", n, err)
			}
			if got[0].(int) != v {
				t.Fatalf("node %d read %v after acknowledged write of %d", n, got[0], v)
			}
		}
	}
	if f := cl.Node(2).Stats().Value("lease_invalidations_sent"); f == 0 {
		t.Error("writes invalidated no leases despite live readers")
	}
}

// TestLeaseExpiryAndRenewal: an expired lease copy degenerates into the
// forwarding path (lease_stale), and the re-granted lease re-arms the same
// copy in place (lease_renewals) when the object did not change.
func TestLeaseExpiryAndRenewal(t *testing.T) {
	cl := newLeaseCluster(t, 2, 50*time.Millisecond)
	owner := cl.Node(1).Root()
	ref, err := owner.New(&LeasedCounter{N: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.SetCacheable(ref); err != nil {
		t.Fatal(err)
	}
	readUntilLeaseHit(t, cl, 0, ref, 3)
	time.Sleep(120 * time.Millisecond) // let the lease lapse
	out, err := cl.Node(0).Root().Invoke(ref, "Get")
	if err != nil || out[0].(int) != 3 {
		t.Fatalf("post-expiry Get = %v, %v", out, err)
	}
	if s := cl.Node(0).Stats().Value("lease_stale"); s == 0 {
		t.Error("expired lease did not forward")
	}
	waitCounter(t, cl.Node(0), "lease_renewals", 1)
}

// TestLeaseMutationPathsInvalidate audits the non-invoke mutation paths:
// MoveTo and Delete must both fence outstanding leases, and SetImmutable
// folds a leasable object back into the immutable-replica regime.
func TestLeaseMutationPathsInvalidate(t *testing.T) {
	cl := newLeaseCluster(t, 3, 5*time.Second)
	owner := cl.Node(1).Root()

	// MoveTo: the lease copy on node 0 must not survive the move as truth —
	// reads after the move still see the right value and the right location.
	ref, err := owner.New(&LeasedCounter{N: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.SetCacheable(ref); err != nil {
		t.Fatal(err)
	}
	readUntilLeaseHit(t, cl, 0, ref, 11)
	if err := owner.MoveTo(ref, 2); err != nil {
		t.Fatal(err)
	}
	if loc, err := owner.Locate(ref); err != nil || loc != 2 {
		t.Fatalf("Locate after move = %v, %v", loc, err)
	}
	if out, err := cl.Node(0).Root().Invoke(ref, "Add", 1); err != nil || out[0].(int) != 12 {
		t.Fatalf("Add after move = %v, %v", out, err)
	}

	// Delete: reads from the ex-lease-holder must surface ErrNoSuchObject,
	// not the cached value.
	if err := owner.Delete(ref); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := cl.Node(0).Root().Invoke(ref, "Get")
		if errors.Is(err, ErrNoSuchObject) || errors.Is(err, ErrDeleted) {
			break
		}
		if err != nil {
			t.Fatalf("Get after delete: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("lease copy still serving a deleted object")
		}
		time.Sleep(time.Millisecond)
	}

	// SetImmutable: the object leaves the lease regime; reads still work
	// everywhere (now via immutable replicas).
	ref2, err := owner.New(&LeasedCounter{N: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.SetCacheable(ref2); err != nil {
		t.Fatal(err)
	}
	readUntilLeaseHit(t, cl, 0, ref2, 5)
	if err := owner.SetImmutable(ref2); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 3; n++ {
		if out, err := cl.Node(n).Root().Invoke(ref2, "Get"); err != nil || out[0].(int) != 5 {
			t.Fatalf("immutable Get from node %d = %v, %v", n, out, err)
		}
	}
}

// TestLeaseSetCacheableRejects pins the API contract: immutable objects
// cannot become cacheable, and marking twice is idempotent.
func TestLeaseSetCacheableRejects(t *testing.T) {
	cl := newLeaseCluster(t, 2, time.Second)
	ctx := cl.Node(0).Root()
	ref, err := ctx.New(&LeasedCounter{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.SetCacheable(ref); err != nil {
		t.Fatal(err)
	}
	if err := ctx.SetCacheable(ref); err != nil {
		t.Fatalf("second SetCacheable: %v", err)
	}
	im, err := ctx.New(&LeasedCounter{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.SetImmutable(im); err != nil {
		t.Fatal(err)
	}
	if err := ctx.SetCacheable(im); !errors.Is(err, ErrBadArgument) {
		t.Fatalf("SetCacheable on immutable = %v, want ErrBadArgument", err)
	}
}

// TestLeaseReadYourWritesProperty is the 10k-op coherence property: drive a
// random mix of leased reads, writes and moves over cacheable counters and
// check that no read — from any node, at any point — observes a value older
// than the last acknowledged write. The short TTL keeps expiry/renewal churn
// in the mix.
func TestLeaseReadYourWritesProperty(t *testing.T) {
	const (
		nodes = 3
		objs  = 4
		ops   = 10000
	)
	for _, seed := range []int64{1, 1989} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			cl := newLeaseCluster(t, nodes, 100*time.Millisecond)
			refs := make([]Ref, objs)
			model := make([]int, objs)
			for i := range refs {
				ctx := cl.Node(i % nodes).Root()
				ref, err := ctx.New(&LeasedCounter{})
				if err != nil {
					t.Fatal(err)
				}
				if err := ctx.SetCacheable(ref); err != nil {
					t.Fatal(err)
				}
				refs[i] = ref
			}
			ctx := cl.Node(0).Root()
			for i := 0; i < ops; i++ {
				o := rng.Intn(objs)
				n := rng.Intn(nodes)
				switch r := rng.Intn(100); {
				case r < 80: // leased read
					out, err := cl.Node(n).Root().Invoke(refs[o], "Get")
					if err != nil {
						t.Fatalf("op %d: Get: %v", i, err)
					}
					if got := out[0].(int); got != model[o] {
						t.Fatalf("op %d: node %d read %d for object %d, last acknowledged write was %d",
							i, n, got, o, model[o])
					}
				case r < 95: // write (possibly through a lease copy's forward)
					out, err := cl.Node(n).Root().Invoke(refs[o], "Add", 1)
					if err != nil {
						t.Fatalf("op %d: Add: %v", i, err)
					}
					model[o]++
					if got := out[0].(int); got != model[o] {
						t.Fatalf("op %d: Add returned %d, model %d", i, got, model[o])
					}
				default: // move the object under its leases
					if err := ctx.MoveTo(refs[o], gaddr.NodeID(n)); err != nil {
						t.Fatalf("op %d: MoveTo: %v", i, err)
					}
				}
			}
			hits := int64(0)
			for n := 0; n < nodes; n++ {
				hits += cl.Node(n).Stats().Value("lease_hits")
			}
			if hits == 0 {
				t.Error("property run exercised no lease hits — the read path never cached")
			}
		})
	}
}

// TestLeaseChurnMoveDeleteRace hammers lease grant/install/revoke against
// concurrent MoveTo and Delete churn; run under -race it is the data-race
// audit for the coherence layer. Readers tolerate exactly one error class:
// a dead reference error after a delete.
func TestLeaseChurnMoveDeleteRace(t *testing.T) {
	const (
		nodes   = 3
		objs    = 4
		readers = 8
	)
	cl := newLeaseCluster(t, nodes, 30*time.Millisecond)
	ctx := cl.Node(0).Root()
	refs := make([]Ref, objs)
	for i := range refs {
		ref, err := ctx.New(&LeasedCounter{})
		if err != nil {
			t.Fatal(err)
		}
		if err := ctx.SetCacheable(ref); err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
	}
	stop := make(chan struct{})
	errc := make(chan error, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				ref := refs[rng.Intn(objs)]
				n := rng.Intn(nodes)
				if _, err := cl.Node(n).Root().Invoke(ref, "Get"); err != nil &&
					!errors.Is(err, ErrNoSuchObject) && !errors.Is(err, ErrDeleted) {
					errc <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
			}
		}(r)
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 60; i++ {
		ref := refs[rng.Intn(objs)]
		switch rng.Intn(3) {
		case 0:
			if err := ctx.MoveTo(ref, gaddr.NodeID(rng.Intn(nodes))); err != nil &&
				!errors.Is(err, ErrNoSuchObject) && !errors.Is(err, ErrDeleted) {
				t.Fatalf("churn %d: MoveTo: %v", i, err)
			}
		case 1:
			if _, err := cl.Node(rng.Intn(nodes)).Root().Invoke(ref, "Add", 1); err != nil &&
				!errors.Is(err, ErrNoSuchObject) && !errors.Is(err, ErrDeleted) {
				t.Fatalf("churn %d: Add: %v", i, err)
			}
		case 2:
			if i > 40 { // deletes only near the end, so churn stays interesting
				if err := ctx.Delete(ref); err != nil &&
					!errors.Is(err, ErrNoSuchObject) && !errors.Is(err, ErrDeleted) {
					t.Fatalf("churn %d: Delete: %v", i, err)
				}
			}
		}
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestLeasePurgeOnPeerDeath: when a peer is declared down, its lease copies
// and the grants recorded for it are dropped (the DropHintsTo fix extended to
// the coherence layer). In-process clusters cannot kill a node outright, so
// this drives purgePeer through the health hook's code path directly.
func TestLeasePurgeOnPeerDeath(t *testing.T) {
	cl := newLeaseCluster(t, 2, 5*time.Second)
	owner := cl.Node(1).Root()
	ref, err := owner.New(&LeasedCounter{N: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.SetCacheable(ref); err != nil {
		t.Fatal(err)
	}
	readUntilLeaseHit(t, cl, 0, ref, 4)

	// Owner side: node 0 dies; its grant entry must go.
	cl.Node(1).purgePeer(0)
	if g := cl.Node(1).Stats().Value("lease_grants_dropped_down"); g == 0 {
		t.Error("grant table kept an entry for a dead peer")
	}
	// Holder side: node 1 (the grantor) dies; node 0's lease copy must go,
	// and the next read must not serve the orphaned copy locally.
	cl.Node(0).purgePeer(1)
	if p := cl.Node(0).Stats().Value("lease_purged_down"); p == 0 {
		t.Error("lease copy survived its grantor's death")
	}
	before := cl.Node(0).Stats().Value("lease_hits")
	if out, err := cl.Node(0).Root().Invoke(ref, "Get"); err != nil || out[0].(int) != 4 {
		t.Fatalf("Get after purge = %v, %v", out, err)
	}
	if cl.Node(0).Stats().Value("lease_hits") != before {
		t.Error("read after purge was served by the purged lease copy")
	}
}

// SlowLeased is LeasedCounter with a slow read, long enough to hold a lease
// copy pinned while a write's revoke lands.
type SlowLeased struct{ N int }

func (c *SlowLeased) Add(n int) int { c.N += n; return c.N }
func (c *SlowLeased) Get() int      { return c.N }
func (c *SlowLeased) SlowGet(ms int) int {
	time.Sleep(time.Duration(ms) * time.Millisecond)
	return c.N
}

// AmberReadOnly declares both reads non-mutating.
func (c *SlowLeased) AmberReadOnly() []string { return []string{"Get", "SlowGet"} }

// TestLeaseRevokedPinnedCopyNeverRenewed is the stale-read regression: a
// revoke that lands while a local read holds the lease copy pinned zeroes
// the copy's expiry and advances its epoch but cannot drop its payload. The
// next grant at that epoch carries the written value, and must replace the
// dead copy (once unpinned), never renew it.
func TestLeaseRevokedPinnedCopyNeverRenewed(t *testing.T) {
	cl := newLeaseCluster(t, 2, 5*time.Second)
	if err := cl.Register(&SlowLeased{}); err != nil {
		t.Fatal(err)
	}
	owner, reader := cl.Node(1).Root(), cl.Node(0).Root()
	ref := mustNew(t, owner, &SlowLeased{})
	if err := owner.SetCacheable(ref); err != nil {
		t.Fatal(err)
	}
	// 1. Node 0 takes a lease.
	readUntilLeaseHit(t, cl, 0, ref, 0)
	// 2. A 300 ms read pins node 0's lease copy.
	hits := cl.Node(0).Stats().Value("lease_hits")
	slow := reader.AsyncInvoke(ref, "SlowGet", 300)
	waitCounter(t, cl.Node(0), "lease_hits", hits+1)
	// 3. The owner writes; its fence revokes the pinned copy.
	if _, err := owner.Invoke(ref, "Add", 1); err != nil {
		t.Fatal(err)
	}
	// 4. One read from node 0 forwards to the owner, sees the write, and
	// brings back a grant at the revoke's epoch; wait for the installer to
	// act on it while the slow read still holds the old copy.
	settled := func() int64 {
		s := cl.Node(0).Stats()
		return s.Value("lease_renewals") + s.Value("lease_installs_dropped") + s.Value("lease_installs")
	}
	before := settled()
	if out, err := reader.Invoke(ref, "Get"); err != nil || out[0].(int) != 1 {
		t.Fatalf("read after write = %v, %v; want 1", out, err)
	}
	for deadline := time.Now().Add(5 * time.Second); settled() == before; {
		if time.Now().After(deadline) {
			t.Fatal("the grant from the post-write read was never processed")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := slow.Join(reader); err != nil {
		t.Fatal(err)
	}
	// 5. Every later read on node 0 must see the write.
	for i := 0; i < 20; i++ {
		out, err := reader.Invoke(ref, "Get")
		if err != nil {
			t.Fatal(err)
		}
		if out[0].(int) != 1 {
			t.Fatalf("read %d after the slow read ended = %v, want 1 (stale lease revived)", i, out[0])
		}
		time.Sleep(time.Millisecond)
	}
}
