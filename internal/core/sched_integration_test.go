package core

import (
	"sync"
	"testing"
	"time"

	"amber/internal/sched"
)

func TestNewAtPlacesObject(t *testing.T) {
	cl := newTestCluster(t, 3, 1)
	ctx := cl.Node(0).Root()
	ref, err := ctx.NewAt(2, &Counter{N: 5})
	if err != nil {
		t.Fatal(err)
	}
	loc, err := ctx.Locate(ref)
	if err != nil || loc != 2 {
		t.Fatalf("Locate = %v, %v", loc, err)
	}
	out, _ := ctx.Invoke(ref, "Get")
	if out[0].(int) != 5 {
		t.Fatalf("state = %v", out)
	}
	// Home stays at the creator: a third node resolving the ref goes via
	// node 0's forwarding descriptor.
	if _, err := cl.Node(1).Root().Invoke(ref, "Get"); err != nil {
		t.Fatal(err)
	}
	// NewAt to the local node is a pure create. The invoke above leaves a
	// chain-update oneway trailing behind its reply; let it land first.
	quiesce(t, cl)
	before := cl.NetStats().Value("msgs_sent")
	if _, err := ctx.NewAt(0, &Counter{}); err != nil {
		t.Fatal(err)
	}
	if cl.NetStats().Value("msgs_sent") != before {
		t.Fatal("local NewAt used the network")
	}
}

// Tracker records the order operations start, for scheduling tests.
type Tracker struct {
	mu    sync.Mutex
	Order []int
}

func (tr *Tracker) Run(ctx *Ctx, tag, ms int) int {
	tr.mu.Lock()
	tr.Order = append(tr.Order, tag)
	tr.mu.Unlock()
	time.Sleep(time.Duration(ms) * time.Millisecond)
	return tag
}

func (tr *Tracker) Snapshot() []int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]int(nil), tr.Order...)
}

func TestPriorityPolicyHonoursThreadPriorities(t *testing.T) {
	reg := NewRegistry()
	cl, err := NewCluster(ClusterConfig{
		Nodes: 1, ProcsPerNode: 1,
		Policy:   func() sched.Policy { return sched.NewPriority() },
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Register(&Tracker{}); err != nil {
		t.Fatal(err)
	}
	ctx := cl.Node(0).Root()
	trk := &Tracker{}
	ref, _ := ctx.New(trk)

	// Occupy the single processor, then queue three threads with rising
	// priorities; they must run highest-first.
	hog, _ := ctx.StartThread(ref, "Run", 0, 120)
	time.Sleep(30 * time.Millisecond) // hog is on the CPU
	var threads []Thread
	for _, prio := range []int{1, 9, 5} {
		spawner := cl.Node(0).Root()
		spawner.SetPriority(prio)
		th, err := spawner.StartThread(ref, "Run", prio, 1)
		if err != nil {
			t.Fatal(err)
		}
		threads = append(threads, th)
		time.Sleep(10 * time.Millisecond) // deterministic queue order
	}
	for _, th := range append(threads, hog) {
		if _, err := ctx.Join(th); err != nil {
			t.Fatal(err)
		}
	}
	order := trk.Snapshot()
	if len(order) != 4 || order[0] != 0 {
		t.Fatalf("order = %v", order)
	}
	want := []int{9, 5, 1}
	for i, w := range want {
		if order[i+1] != w {
			t.Fatalf("priority order = %v, want hog then %v", order, want)
		}
	}
}

func TestAdaptivePolicyEndToEndInCluster(t *testing.T) {
	reg := NewRegistry()
	cl, err := NewCluster(ClusterConfig{
		Nodes: 1, ProcsPerNode: 1, Quantum: time.Millisecond,
		Policy:   func() sched.Policy { return sched.NewAdaptive() },
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Register(&Yielder{}); err != nil {
		t.Fatal(err)
	}
	ctx := cl.Node(0).Root()
	if cl.Node(0).Scheduler().PolicyName() != "adaptive" {
		t.Fatal("adaptive policy not installed")
	}
	a, _ := ctx.New(&Yielder{})
	b, _ := ctx.New(&Yielder{})
	tha, _ := ctx.StartThread(a, "Spin", 20)
	thb, _ := ctx.StartThread(b, "Spin", 20)
	for _, th := range []Thread{tha, thb} {
		if _, err := ctx.Join(th); err != nil {
			t.Fatal(err)
		}
	}
}
