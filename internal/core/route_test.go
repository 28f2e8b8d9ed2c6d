package core

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"amber/internal/gaddr"
)

// quiesce waits until the cluster's fabric stops sending: oneway chain
// updates and other trailing messages land after the call that caused them
// has returned.
func quiesce(t testing.TB, cl *Cluster) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	last := cl.NetStats().Value("msgs_sent")
	for quiet := 0; quiet < 5; {
		time.Sleep(2 * time.Millisecond)
		cur := cl.NetStats().Value("msgs_sent")
		if cur != last {
			last, quiet = cur, 0
		} else {
			quiet++
		}
		if time.Now().After(deadline) {
			t.Fatal("cluster never stopped sending")
		}
	}
}

// netProbes counts the health-probe traffic sent so far: pings from every
// endpoint's books, pongs from the fabric's per-kind byte counter (a pong
// payload is never empty, so zero bytes means zero pongs).
func netProbes(cl *Cluster) (pings, pongBytes int64) {
	for i := 0; i < cl.NumNodes(); i++ {
		pings += cl.Node(i).RPCStats().Value("rpc_probes_sent")
	}
	return pings, cl.NetStats().Value("bytes_sent_k5")
}

// TestE8ForwardingChainMessageTable asserts the EXPERIMENTS E8 table (paper
// §3.3) exactly on the Instant fabric: the first reference down a k-hop
// forwarding chain costs 2k+2 messages (k+1 requests, one reply, k
// chain-cache oneways), the second costs 2, and a healthy chain sends no
// health probe at all.
func TestE8ForwardingChainMessageTable(t *testing.T) {
	for k := 1; k <= 6; k++ {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			cl := newTestCluster(t, k+2, 1)
			// The object starts on node 1 (its home) and each move is made
			// by the node it leaves, so only that node's tombstone learns the
			// new location: node 1 → node 2 → ... → node k+1.
			ref := mustNew(t, cl.Node(1).Root(), &Counter{})
			for h := 0; h < k; h++ {
				if err := cl.Node(1+h).Root().MoveTo(ref, gaddr.NodeID(2+h)); err != nil {
					t.Fatal(err)
				}
			}
			quiesce(t, cl)
			ctx := cl.Node(0).Root()
			pings0, pongs0 := netProbes(cl)
			for i, want := range []int64{int64(2*k + 2), 2} {
				before := cl.NetStats().Value("msgs_sent")
				out, err := ctx.Invoke(ref, "Where")
				if err != nil {
					t.Fatal(err)
				}
				if got := out[0].(gaddr.NodeID); got != gaddr.NodeID(k+1) {
					t.Fatalf("reference %d ran on node %d, want %d", i+1, got, k+1)
				}
				quiesce(t, cl)
				if got := cl.NetStats().Value("msgs_sent") - before; got != want {
					t.Errorf("reference %d cost %d messages, want %d", i+1, got, want)
				}
			}
			if pings, pongs := netProbes(cl); pings != pings0 || pongs != pongs0 {
				t.Errorf("healthy chain probed: %d pings, %d pong bytes", pings-pings0, pongs-pongs0)
			}
		})
	}
}

// routeEntryPoint is one public way into the routing engine, run from ctx
// against ref. It reports the call's error and checks the call's effect.
type routeEntryPoint struct {
	name string
	run  func(t *testing.T, cl *Cluster, ctx *Ctx, ref Ref) error
}

// addOnce expects a fresh counter: one Add(1) must return exactly 1.
func addOnce(out []any, err error) error {
	if err != nil {
		return err
	}
	if len(out) != 1 || out[0].(int) != 1 {
		return fmt.Errorf("Add(1) on a fresh counter = %v, want [1]", out)
	}
	return nil
}

var routeEntryPoints = []routeEntryPoint{
	{"Invoke", func(t *testing.T, cl *Cluster, ctx *Ctx, ref Ref) error {
		return addOnce(ctx.Invoke(ref, "Add", 1))
	}},
	{"AsyncInvoke", func(t *testing.T, cl *Cluster, ctx *Ctx, ref Ref) error {
		return addOnce(ctx.AsyncInvoke(ref, "Add", 1).Join(ctx))
	}},
	{"InvokeChain", func(t *testing.T, cl *Cluster, ctx *Ctx, ref Ref) error {
		return addOnce(ctx.InvokeChain([]ChainStep{{Obj: ref, Method: "Add", Args: []any{1}}}))
	}},
	{"MoveTo", func(t *testing.T, cl *Cluster, ctx *Ctx, ref Ref) error {
		return ctx.MoveTo(ref, 0)
	}},
	{"Locate", func(t *testing.T, cl *Cluster, ctx *Ctx, ref Ref) error {
		at, err := ctx.Locate(ref)
		if err == nil && (at < 1 || int(at) >= cl.NumNodes()) {
			err = fmt.Errorf("Locate = node %d, not a node the object lived on", at)
		}
		return err
	}},
	{"Delete", func(t *testing.T, cl *Cluster, ctx *Ctx, ref Ref) error {
		if err := ctx.Delete(ref); err != nil {
			return err
		}
		if _, err := ctx.Invoke(ref, "Get"); !errors.Is(err, ErrDeleted) {
			return fmt.Errorf("invoke after Delete: %v, want ErrDeleted", err)
		}
		return nil
	}},
}

// TestRouteParityAcrossEntryPoints drives every routed entry point through
// the same route shapes from node 0 and asserts they all reach the same
// outcome: the operation completes on the object wherever it lives.
func TestRouteParityAcrossEntryPoints(t *testing.T) {
	const nodes = 5
	shapes := []struct {
		name string
		// setup places a fresh counter (home: node 1) and returns it with a
		// stop function for any background activity.
		setup func(t *testing.T, cl *Cluster) (Ref, func())
	}{
		{"hint-to-never-holder", func(t *testing.T, cl *Cluster) (Ref, func()) {
			ref := mustNew(t, cl.Node(1).Root(), &Counter{})
			if err := cl.Node(1).Root().MoveTo(ref, 2); err != nil {
				t.Fatal(err)
			}
			// Node 3 never held the object; node 0 is pointed at it anyway.
			cl.Node(0).hintSet(ref, 3)
			return ref, func() {}
		}},
		{"stale-chain-k3", func(t *testing.T, cl *Cluster) (Ref, func()) {
			ref := mustNew(t, cl.Node(1).Root(), &Counter{})
			for h := 1; h <= 3; h++ {
				if err := cl.Node(h).Root().MoveTo(ref, gaddr.NodeID(h+1)); err != nil {
					t.Fatal(err)
				}
			}
			return ref, func() {}
		}},
		{"moving-concurrently", func(t *testing.T, cl *Cluster) (Ref, func()) {
			ref := mustNew(t, cl.Node(1).Root(), &Counter{})
			var stop atomic.Bool
			done := make(chan error, 1)
			go func() {
				mover := cl.Node(1).Root()
				var err error
				for i := 0; !stop.Load(); i++ {
					if err = mover.MoveTo(ref, gaddr.NodeID(1+i%(nodes-1))); errors.Is(err, ErrDeleted) {
						err = nil // the Delete entry point won
						break
					}
					if err != nil {
						break
					}
				}
				done <- err
			}()
			time.Sleep(5 * time.Millisecond) // let the storm get going
			return ref, func() {
				stop.Store(true)
				if err := <-done; err != nil {
					t.Errorf("concurrent mover: %v", err)
				}
			}
		}},
	}
	for _, shape := range shapes {
		for _, ep := range routeEntryPoints {
			t.Run(shape.name+"/"+ep.name, func(t *testing.T) {
				cl := newTestCluster(t, nodes, 2)
				ref, stop := shape.setup(t, cl)
				err := ep.run(t, cl, cl.Node(0).Root(), ref)
				stop()
				if err != nil {
					t.Fatalf("%s via %s: %v", ep.name, shape.name, err)
				}
			})
		}
	}
}

// TestRouteStormNeverLeaksRetrySentinel runs moves, attaches, unattaches and
// invokes against a handful of objects from every node at once. Any of them
// may fail with a public error; none may surface the engine's internal
// re-route signal.
func TestRouteStormNeverLeaksRetrySentinel(t *testing.T) {
	const nodes, objects, workers, ops = 4, 6, 8, 150
	cl := newTestCluster(t, nodes, 2)
	refs := make([]Ref, objects)
	for i := range refs {
		refs[i] = mustNew(t, cl.Node(i%nodes).Root(), &Counter{})
	}
	var wg sync.WaitGroup
	leaks := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			for i := 0; i < ops; i++ {
				ref, peer := refs[rng.Intn(objects)], refs[rng.Intn(objects)]
				c := cl.Node(rng.Intn(nodes)).Root()
				var err error
				switch rng.Intn(6) {
				case 0, 1:
					_, err = c.Invoke(ref, "Add", 1)
				case 2, 3:
					err = c.MoveTo(ref, gaddr.NodeID(rng.Intn(nodes)))
				case 4:
					if peer != ref {
						err = c.Attach(ref, peer)
					}
				case 5:
					if peer != ref {
						err = c.Unattach(ref, peer)
					}
				}
				if err != nil && strings.Contains(err.Error(), "internal: retry routing") {
					leaks <- fmt.Errorf("worker %d op %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(leaks)
	for err := range leaks {
		t.Error(err)
	}
}
