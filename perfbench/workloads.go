package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"amber/internal/core"
	"amber/internal/gaddr"
	"amber/internal/sor"
)

// runner runs one workload on a cluster. place creates the workload's
// objects on a fresh cluster (it is part of set-up); run issues operations
// until stop and returns once every issued operation has completed; verify
// makes the end-of-run checks.
type runner interface {
	place(cl *cluster) error
	run(cl *cluster, stop time.Time, rec *recorder) *outcome
	verify(cl *cluster) error
	// argVectors returns argument vectors shaped like the workload's own,
	// for timing the wire codec on them.
	argVectors() [][]any
}

// outcome is what one run of a runner observed.
type outcome struct {
	mu        sync.Mutex
	attempted int64 // operations in the workload's unit
	failed    int64 // operations that errored or returned a wrong result
	firstErr  error
	lat       map[string][]float64 // samples per class, µs; dropped once summarized
	count     map[string]float64   // samples per class, plus SOR iterations
}

func newOutcome() *outcome {
	return &outcome{lat: make(map[string][]float64), count: make(map[string]float64)}
}

func (o *outcome) fail(err error) {
	o.mu.Lock()
	o.failed++
	if o.firstErr == nil {
		o.firstErr = err
	}
	o.mu.Unlock()
}

func (o *outcome) merge(p *outcome) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted += p.attempted
	o.failed += p.failed
	if o.firstErr == nil {
		o.firstErr = p.firstErr
	}
	for k, v := range p.lat {
		o.lat[k] = append(o.lat[k], v...)
	}
	for k, v := range p.count {
		o.count[k] += v
	}
}

// record adds one sample of class; the caller holds o.mu or owns o alone.
func (o *outcome) record(class string, usec float64) {
	o.lat[class] = append(o.lat[class], usec)
	o.count[class]++
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// stream returns the seeded generator for one run of one client: the same
// seed always yields the same operation schedule.
func stream(seed int64, run, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(run)*1009 + int64(client)))
}

// ---------------------------------------------------------------- invoke-remote

// invokeRemote: nproc closed-loop clients on node 0 make synchronous calls on
// objects resident on node 1. One call in eight carries a 4 KiB payload that
// is echoed back; the rest are null calls.
type invokeRemote struct {
	seed     int64
	runs     int
	objs     []core.Ref
	payloads [][]byte
	seq      atomic.Uint64
}

const (
	invokeObjects = 16
	echoBytes     = 4096
	echoShare     = 8 // one call in echoShare is an echo
)

func newInvokeRemote(seed int64) (runner, error) {
	d := &invokeRemote{seed: seed}
	rng := stream(seed, -1, 0)
	for i := 0; i < 8; i++ {
		p := make([]byte, echoBytes)
		rng.Read(p)
		d.payloads = append(d.payloads, p)
	}
	return d, nil
}

func (d *invokeRemote) place(cl *cluster) error {
	d.objs = d.objs[:0]
	ctx := cl.nodes[1].Root()
	for i := 0; i < invokeObjects; i++ {
		ref, err := ctx.New(&Echo{})
		if err != nil {
			return err
		}
		d.objs = append(d.objs, ref)
	}
	return nil
}

func (d *invokeRemote) run(cl *cluster, stop time.Time, rec *recorder) *outcome {
	d.runs++
	out := newOutcome()
	var wg sync.WaitGroup
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			o := newOutcome()
			ctx := cl.nodes[0].Root()
			for time.Now().Before(stop) {
				obj := d.objs[rng.Intn(len(d.objs))]
				class, method := clNull, "Null"
				var payload []byte
				if rng.Intn(echoShare) == 0 {
					class, method = clEcho, "Echo"
					payload = d.payloads[rng.Intn(len(d.payloads))]
				}
				op := opID(class, d.seq.Add(1))
				args := []any{int64(op)}
				if payload != nil {
					args = append(args, payload)
				}
				var t0 int64
				if rec != nil {
					rec.issue(op, args...)
					t0 = rec.now()
				}
				start := time.Now()
				res, err := ctx.Invoke(obj, method, args...)
				lat := time.Since(start)
				if rec != nil {
					rec.add(span{start: t0, end: rec.now(), op: op, name: spInvoke})
					rec.done(op)
				}
				o.attempted++
				switch {
				case err != nil:
					o.fail(fmt.Errorf("%s: %w", method, err))
				case payload == nil && (len(res) != 1 || res[0] != int64(op)):
					o.fail(fmt.Errorf("Null(%d) returned %v", op, res))
				case payload != nil && (len(res) != 1 || !bytesEqual(res[0], payload)):
					o.fail(fmt.Errorf("Echo(%d) returned a different payload", op))
				default:
					o.record(method, us(lat))
				}
			}
			out.merge(o)
		}(stream(d.seed, d.runs, c))
	}
	wg.Wait()
	return out
}

func bytesEqual(v any, want []byte) bool {
	b, ok := v.([]byte)
	return ok && bytes.Equal(b, want)
}

func (d *invokeRemote) verify(*cluster) error { return nil }

func (d *invokeRemote) argVectors() [][]any {
	return [][]any{{int64(opID(clNull, 1))}, {int64(opID(clEcho, 1)), d.payloads[0]}}
}

// ---------------------------------------------------------------- cached-reads

// cachedReads: one generator on node 0 issues AsyncInvokes on a fixed
// schedule over 3 nodes: reads of immutable objects (replicas), reads of
// cacheable counters (leases), and Adds to those counters (lease fences).
// Without leases (replicaReads), every read is an immutable read, so the Adds
// take the cacheable write path with no grants to fence.
type cachedReads struct {
	seed   int64
	leases bool
	runs   int
	imm    []core.Ref
	immVal []int64
	ctr    []core.Ref
	owner  []gaddr.NodeID
	floor  []atomic.Int64 // highest value a completed Add returned, per counter
	total  []atomic.Int64 // sum of the deltas issued, per counter
	seq    atomic.Uint64
}

const (
	cachedObjects = 32   // of each kind, split between nodes 1 and 2
	cachedRate    = 2000 // arrivals per second
	// Every writeEvery-th arrival is a write, so every part has the same
	// mix; with leases, the seed splits the other arrivals evenly between
	// immutable and counter reads.
	writeEvery = 10
)

var cachedClass = map[uint64]string{clReadImm: "read_imm", clReadLease: "read_lease", clWrite: "write"}

func newCachedReads(seed int64) (runner, error) { return &cachedReads{seed: seed, leases: true}, nil }

func (d *cachedReads) place(cl *cluster) error {
	rng := stream(d.seed, -1, 0)
	d.imm, d.immVal, d.ctr, d.owner = nil, nil, nil, nil
	d.floor = make([]atomic.Int64, cachedObjects)
	d.total = make([]atomic.Int64, cachedObjects)
	for i := 0; i < cachedObjects; i++ {
		owner := gaddr.NodeID(1 + i%2)
		ctx := cl.nodes[owner].Root()
		v := rng.Int63()
		ref, err := ctx.New(&Const{V: v})
		if err != nil {
			return err
		}
		if err := ctx.SetImmutable(ref); err != nil {
			return err
		}
		d.imm, d.immVal = append(d.imm, ref), append(d.immVal, v)
		ref, err = ctx.New(&Counter{})
		if err != nil {
			return err
		}
		if err := ctx.SetCacheable(ref); err != nil {
			return err
		}
		d.ctr, d.owner = append(d.ctr, ref), append(d.owner, owner)
	}
	return nil
}

// waitUntil returns at t. Go's timers wake through the netpoller at
// millisecond granularity here, several arrival intervals late, so the
// generator sleeps in the kernel instead (nanosleep overshoots by its
// ~50µs timer slack, which sleepSlack leaves room for) and yields in a loop
// for the last few microseconds. A longer spin would keep the scheduler
// from polling the network and delay every reply in flight.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		switch {
		case d <= 0:
			return
		case d > sleepSlack+20*time.Microsecond:
			ts := syscall.NsecToTimespec(int64(d - sleepSlack))
			_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep just loops
		default:
			runtime.Gosched()
		}
	}
}

const sleepSlack = 70 * time.Microsecond

func (d *cachedReads) run(cl *cluster, stop time.Time, rec *recorder) *outcome {
	d.runs++
	rng := stream(d.seed, d.runs, 0)
	out := newOutcome()
	ctx := cl.nodes[0].Root()
	interval := time.Second / cachedRate
	var wg sync.WaitGroup
	begin := time.Now()
	for i := 0; ; i++ {
		due := begin.Add(time.Duration(i) * interval)
		if !due.Before(stop) {
			break
		}
		waitUntil(due)
		out.mu.Lock()
		out.record("load.gen_lag", us(time.Since(due)))
		out.mu.Unlock()
		d.issue(ctx, rng, i, due, out, &wg, rec)
	}
	wg.Wait()
	return out
}

// issue picks arrival i's operation, issues it with AsyncInvoke, and once it
// completes checks the result and records its latency, counted from since.
func (d *cachedReads) issue(ctx *core.Ctx, rng *rand.Rand, i int, since time.Time, out *outcome, wg *sync.WaitGroup, rec *recorder) {
	idx := rng.Intn(cachedObjects)
	var (
		class, method = clReadImm, "Get"
		obj           = d.imm[idx]
		floor         int64
		delta         int64
	)
	switch {
	case i%writeEvery == writeEvery-1:
		class, method, obj = clWrite, "Add", d.ctr[idx]
		delta = 1 + rng.Int63n(3)
		d.total[idx].Add(delta)
	case d.leases && rng.Intn(2) == 0:
		class, obj = clReadLease, d.ctr[idx]
		floor = d.floor[idx].Load()
	}
	op := opID(class, d.seq.Add(1))
	args := []any{int64(op)}
	if class == clWrite {
		args = append(args, delta)
	}
	var t0 int64
	if rec != nil {
		rec.issue(op, args...)
		t0 = rec.now()
	}
	f := ctx.AsyncInvoke(obj, method, args...)
	if rec != nil {
		rec.add(span{start: t0, end: rec.now(), op: op, name: spIssue})
	}
	wg.Add(1)
	f.OnDone(func(f *core.Future) {
		defer wg.Done()
		lat := time.Since(since)
		if rec != nil {
			rec.add(span{start: t0, end: rec.now(), op: op, name: spInvoke})
			rec.done(op)
		}
		res, err := f.Join(nil)
		var v int64
		if err == nil && len(res) == 1 {
			v, _ = res[0].(int64)
		}
		switch {
		case err != nil:
			err = fmt.Errorf("%s: %w", method, err)
		case len(res) != 1:
			err = fmt.Errorf("%s returned %v", method, res)
		case class == clReadImm && v != d.immVal[idx]:
			err = fmt.Errorf("immutable read %d: got %d, want %d", idx, v, d.immVal[idx])
		case class == clReadLease && v < floor:
			err = fmt.Errorf("counter %d read %d (op %d), older than the write completed before it (%d)", idx, v, op, floor)
		case class == clWrite:
			for cur := d.floor[idx].Load(); v > cur && !d.floor[idx].CompareAndSwap(cur, v); cur = d.floor[idx].Load() {
			}
		}
		out.mu.Lock()
		defer out.mu.Unlock()
		out.attempted++
		if err != nil {
			out.failed++
			if out.firstErr == nil {
				out.firstErr = err
			}
			return
		}
		out.record(cachedClass[class], us(lat))
	})
}

// replicaReads is cached-reads without the counter reads, as a closed loop:
// nproc clients on node 0 each issue batches of writeEvery AsyncInvokes, nine
// replica reads and one Add, and wait for the whole batch. Latency counts
// from issue.
type replicaReads struct{ cachedReads }

func newReplicaReads(seed int64) (runner, error) {
	return &replicaReads{cachedReads{seed: seed}}, nil
}

func (d *replicaReads) run(cl *cluster, stop time.Time, rec *recorder) *outcome {
	d.runs++
	out := newOutcome()
	var wg sync.WaitGroup
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			ctx := cl.nodes[0].Root()
			var batch sync.WaitGroup
			for time.Now().Before(stop) {
				for i := 0; i < writeEvery; i++ {
					d.issue(ctx, rng, i, time.Now(), out, &batch, rec)
				}
				batch.Wait()
			}
		}(stream(d.seed, d.runs, c))
	}
	wg.Wait()
	return out
}

// verify checks that every counter holds exactly the sum of the deltas
// issued to it, reading it on its owner.
func (d *cachedReads) verify(cl *cluster) error {
	for i, ref := range d.ctr {
		res, err := cl.nodes[d.owner[i]].Root().Invoke(ref, "Get", int64(opID(clReadLease, 0)))
		if err != nil {
			return fmt.Errorf("final read of counter %d: %w", i, err)
		}
		if got, want := res[0].(int64), d.total[i].Load(); got != want {
			return fmt.Errorf("counter %d = %d after all writes, want %d", i, got, want)
		}
	}
	return nil
}

func (d *cachedReads) argVectors() [][]any {
	return [][]any{{int64(opID(clReadLease, 1))}, {int64(opID(clWrite, 1)), int64(2)}}
}

// ---------------------------------------------------------------- migrate-chase

// migrateChase: one closed-loop client on node 0. Each round moves an object
// 1–3 steps round a ring of nodes 1..4, each move issued by the node being
// left, so node 0's hint is that many hops stale; then node 0 references it
// twice: the first reference chases the forwarding chain, the second should
// hit the refreshed hint.
type migrateChase struct {
	seed int64
	runs int
	objs []core.Ref
	loc  []gaddr.NodeID
	seq  atomic.Uint64
}

const (
	chaseObjects = 16
	ringSize     = 4 // nodes 1..4; node 0 only references
	maxStale     = 3 // hops; must stay below ringSize so a chain never loops
)

func newMigrateChase(seed int64) (runner, error) { return &migrateChase{seed: seed}, nil }

func (d *migrateChase) place(cl *cluster) error {
	d.objs, d.loc = nil, nil
	ctx := cl.nodes[1].Root()
	for i := 0; i < chaseObjects; i++ {
		ref, err := ctx.New(&Rover{})
		if err != nil {
			return err
		}
		d.objs, d.loc = append(d.objs, ref), append(d.loc, 1)
	}
	// Give node 0 an accurate hint for every object.
	for _, ref := range d.objs {
		if _, err := cl.nodes[0].Root().Invoke(ref, "Where", int64(opID(clSecond, 0))); err != nil {
			return err
		}
	}
	return nil
}

func (d *migrateChase) run(cl *cluster, stop time.Time, rec *recorder) *outcome {
	d.runs++
	rng := stream(d.seed, d.runs, 0)
	o := newOutcome()
	ctx := cl.nodes[0].Root()
	ref := func(i int, class uint64, name string) bool {
		op := opID(class, d.seq.Add(1))
		var t0 int64
		if rec != nil {
			rec.issue(op, int64(op))
			t0 = rec.now()
		}
		start := time.Now()
		res, err := ctx.Invoke(d.objs[i], "Where", int64(op))
		lat := time.Since(start)
		if rec != nil {
			rec.add(span{start: t0, end: rec.now(), op: op, name: spInvoke})
			rec.done(op)
		}
		switch {
		case err != nil:
			o.fail(fmt.Errorf("%s reference: %w", name, err))
			return false
		case len(res) != 1 || res[0] != int64(d.loc[i]):
			o.fail(fmt.Errorf("%s reference ran on %v, object was moved to %d", name, res, d.loc[i]))
			return false
		}
		o.record(name, us(lat))
		return true
	}
	for time.Now().Before(stop) {
		i := rng.Intn(len(d.objs))
		k := 1 + rng.Intn(maxStale)
		round := time.Now()
		o.attempted++
		for j := 0; j < k; j++ {
			from := d.loc[i]
			to := gaddr.NodeID(1 + int(from)%ringSize)
			var t0 int64
			if rec != nil {
				t0 = rec.now()
			}
			start := time.Now()
			err := cl.nodes[from].Root().MoveTo(d.objs[i], to)
			lat := time.Since(start)
			if rec != nil {
				rec.add(span{start: t0, end: rec.now(), op: opID(clMove, d.seq.Add(1)), name: spMove, node: from})
			}
			if err != nil {
				o.fail(fmt.Errorf("MoveTo %d→%d: %w", from, to, err))
				return o // the object's location is now unknown
			}
			d.loc[i] = to
			o.record("move", us(lat))
		}
		if !ref(i, clChase1+uint64(k-1), "chase") || !ref(i, clSecond, "second") {
			return o
		}
		o.record("round", us(time.Since(round)))
	}
	return o
}

// coldChase measures one first reference down a maxStale-hop chain whose
// links have never carried a forward, on a freshly placed cluster: the
// messages it sends, trailing oneways and health probes included. A busy
// loop hides the probes, which each forwarder rate-limits to one per peer
// per second; this is the cost a quiet cluster pays on every such chain.
func (d *migrateChase) coldChase(cl *cluster) (float64, error) {
	const i = 0
	for j := 0; j < maxStale; j++ {
		from := d.loc[i]
		to := gaddr.NodeID(1 + int(from)%ringSize)
		if err := cl.nodes[from].Root().MoveTo(d.objs[i], to); err != nil {
			return 0, err
		}
		d.loc[i] = to
	}
	settle := func() int64 {
		last, _ := cl.wireTotals()
		for quiet := 0; quiet < 5; {
			time.Sleep(10 * time.Millisecond)
			if n, _ := cl.wireTotals(); n != last {
				last, quiet = n, 0
			} else {
				quiet++
			}
		}
		return last
	}
	before := settle()
	res, err := cl.nodes[0].Root().Invoke(d.objs[i], "Where", int64(opID(clChase3, 0)))
	if err != nil {
		return 0, err
	}
	if len(res) != 1 || res[0] != int64(d.loc[i]) {
		return 0, fmt.Errorf("cold chase ran on %v, object was moved to %d", res, d.loc[i])
	}
	return float64(settle() - before), nil
}

func (d *migrateChase) verify(*cluster) error { return nil }

func (d *migrateChase) argVectors() [][]any { return [][]any{{int64(opID(clChase2, 1))}} }

// ---------------------------------------------------------------- sor

// sorSolve: the paper's Red/Black SOR through sor.RunDistributedCtx on 2
// nodes × 1 processor, each solve checked against the sequential solver.
// The seed picks the plate's boundary temperatures.
type sorSolve struct {
	cfg       sor.Config
	want      [][]float64
	wantIters int
	seqSolve  time.Duration
}

const (
	sorRows, sorCols = 400, 400
	sorOmega         = 1.5
	sorEps           = 1e-9 // below what sorMaxIters reach: every solve does the same work
	sorMaxIters      = 1000
)

func newSor(seed int64) (runner, error) {
	rng := stream(seed, -1, 0)
	p := sor.DefaultProblem(sorRows, sorCols)
	p.Top = 50 + 100*rng.Float64()
	p.Left = 50 * rng.Float64()
	p.Right = 50 * rng.Float64()
	d := &sorSolve{cfg: sor.Config{Problem: p, Omega: sorOmega, Eps: sorEps, MaxIters: sorMaxIters, Overlap: true, ComputeThreads: 1}}
	start := time.Now()
	var err error
	d.want, d.wantIters, err = sor.SolveSequential(p, sorOmega, sorEps, sorMaxIters)
	d.seqSolve = time.Since(start)
	return d, err
}

func (d *sorSolve) place(*cluster) error { return nil }

func (d *sorSolve) run(cl *cluster, stop time.Time, _ *recorder) *outcome {
	o := newOutcome()
	for {
		start := time.Now()
		res, err := sor.RunDistributedCtx(cl.nodes[0].Root(), len(cl.nodes), d.cfg)
		solve := time.Since(start)
		if err != nil {
			o.attempted++
			o.fail(err)
			return o
		}
		// An op is one iteration, so a wrong solve fails all of its iterations.
		o.attempted += int64(res.Iters)
		diff := sor.MaxAbsDiff(res.Grid, d.want)
		switch {
		case res.Iters != d.wantIters:
			o.fail(fmt.Errorf("distributed solve took %d iterations, sequential %d", res.Iters, d.wantIters))
			o.failed += int64(res.Iters) - 1
		case diff > 1e-9:
			o.fail(fmt.Errorf("distributed grid differs from sequential by %g", diff))
			o.failed += int64(res.Iters) - 1
		default:
			o.record("iter", us(solve)/float64(res.Iters))
			o.record("solve", us(solve))
			o.count["iters"] += float64(res.Iters)
		}
		if !time.Now().Before(stop) {
			return o
		}
	}
}

func (d *sorSolve) verify(*cluster) error { return nil }

func (d *sorSolve) argVectors() [][]any {
	row := make([]float64, sorCols)
	return [][]any{{0, 0, row}}
}
