package core

import (
	"bytes"
	"fmt"
	"reflect"
	"time"

	"amber/internal/gaddr"
	"amber/internal/rpc"
	"amber/internal/trace"
	"amber/internal/wire"
)

func valueOf(obj any) reflect.Value { return reflect.ValueOf(obj) }

// invoke is the local entry point for an invocation by thread c. Local
// invocations take the fast path — a residency check plus a direct
// reflective call, no marshalling. Remote ones ship the thread (§3.4).
func (n *Node) invoke(c *Ctx, obj gaddr.Addr, method string, args []any, o callOpts) ([]any, error) {
	if obj == gaddr.Nil {
		return nil, fmt.Errorf("%w: nil reference", ErrNoSuchObject)
	}
	if tr := n.tracer; tr.OnFor(c.rec.ID) {
		span := tr.NextSpan()
		tr.Emit(trace.Event{Kind: trace.KInvokeStart, Trace: c.rec.ID, Span: span,
			Parent: c.span, Thread: c.rec.ID, Obj: uint64(obj), Label: method})
		prev := c.span
		c.span = span
		defer func() {
			c.span = prev
			tr.Emit(trace.Event{Kind: trace.KInvokeEnd, Trace: c.rec.ID, Span: span,
				Parent: prev, Thread: c.rec.ID, Obj: uint64(obj), Label: method})
		}()
	}
	msg := routedMsg{Op: opInvoke, Obj: obj, Thread: c.rec, Method: method}
	if o.readOnly {
		msg.Flags |= rmFlagReadOnly
	}
	l := n.newLadder(o)
	var res []any
	err := n.dispatch(&msg, &l, func(d *descriptor) (err error) {
		res, err = n.runLocal(c, d, obj, method, args, o.readOnly)
		return err
	}, func(to gaddr.NodeID) (err error) {
		// Ship a heap copy: the marshal layer leaks what it encodes, and
		// sharing msg would heap-allocate the routedMsg of every local
		// invoke, which never ships.
		smsg := msg
		res, err = n.shipInvoke(c, &smsg, to, args, o)
		return err
	})
	return res, err
}

// runLocal executes an invocation on an object resolve found resident here
// (d arrives pinned; runPinned releases it), with the bookkeeping every local
// entry point shares — so placement and hit accounting are blind to which
// API issued the call.
func (n *Node) runLocal(c *Ctx, d *descriptor, obj gaddr.Addr, method string, args []any, readOnly bool) ([]any, error) {
	n.cInvokesLocal.Inc()
	if n.heat != nil && !d.Immutable() && !d.Lease() {
		// Local use defends a busy object against migration: the placement
		// rule weighs remote callers against this lane. Lease copies are
		// invisible to placement — migration decisions belong to the
		// object's holder.
		n.heatObserve(obj, n.id)
	}
	if replica := d.Replica(); replica || d.Lease() {
		// A warm read served entirely from a local copy: an immutable
		// replica, or its generalization to mutable objects, a lease copy.
		if replica {
			n.cReplicaHits.Inc()
		} else {
			n.cLeaseHits.Inc()
		}
		if tr := n.tracer; tr.OnFor(c.rec.ID) {
			tr.Emit(trace.Event{Kind: trace.KReplicaHit, Trace: c.rec.ID, Span: c.span,
				Thread: c.rec.ID, Obj: uint64(obj)})
		}
	}
	start := time.Now()
	res, err := n.runPinned(c, d, obj, method, args, readOnly)
	n.histLocal.Observe(time.Since(start))
	return res, err
}

// shipInvoke marshals the invocation and moves the thread to the object's
// (believed) node. The calling goroutine gives up its processor slot while
// the thread is away — on the original system the thread simply was not
// present on this node during that window.
func (n *Node) shipInvoke(c *Ctx, msg *routedMsg, to gaddr.NodeID, args []any, o callOpts) ([]any, error) {
	start := time.Now()
	// The arguments are encoded in place, inside the message's own buffer.
	msg.ArgVals = vals(args)
	if n.replicaOn {
		// Advertise willingness to receive a piggybacked snapshot: if the
		// executor finds the object immutable (replica) or cacheable and the
		// call read-only (reader lease), the reply carries the bytes and this
		// node installs a local copy.
		msg.SnapMax = n.replicaMax
		msg.Flags |= rmFlagLeaseOK
	}
	n.counts.Inc("invokes_shipped")
	// The trace context travels in the rpc envelope: the executor's events
	// parent under this node's invoke span, stitching the hop.
	var ti rpc.TraceInfo
	if tr := n.tracer; tr.OnFor(c.rec.ID) {
		ti = rpc.TraceInfo{TraceID: c.rec.ID, SpanID: c.span}
		tr.Emit(trace.Event{Kind: trace.KMigrateOut, Trace: c.rec.ID, Span: c.span,
			Thread: c.rec.ID, Obj: uint64(msg.Obj), Arg: int64(to)})
	}
	resp, err := n.send(c, msg, to, ti, o)
	elapsed := time.Since(start)
	n.histRemote.Observe(elapsed)
	if ti.TraceID != 0 {
		// A traced journey: remember it as this latency bucket's exemplar so
		// a p99 spike on /metrics links to the journey behind it.
		n.exRemote.Note(elapsed, ti.TraceID)
	}
	if err != nil {
		return nil, err
	}
	if tr := n.tracer; tr.OnFor(c.rec.ID) {
		tr.Emit(trace.Event{Kind: trace.KMigrateIn, Trace: c.rec.ID, Span: c.span,
			Thread: c.rec.ID, Obj: uint64(msg.Obj), Arg: int64(n.id)})
	}
	return n.replyLeg(msg.Obj, resp)
}

// learnLocation caches where an object was last seen (the originating node's
// share of chain caching): a real descriptor (move tombstone) is refreshed in
// place; otherwise the location lands in the hint cache.
//
// epoch versions the claim (the residency version at the reporting node when
// it held the object). A tombstone is only overwritten by strictly newer
// information: replies can be processed long after they were generated — the
// object may have moved on, even back through this node — and an unversioned
// refresh could aim this tombstone backward in time, forming a routing cycle
// with another node's newer tombstone. Epoch zero means "unversioned" (e.g. a
// deferred move reply) and never touches a descriptor.
func (n *Node) learnLocation(obj gaddr.Addr, at gaddr.NodeID, epoch uint64) {
	if at == n.id || at == gaddr.NoNode {
		return
	}
	if d := n.desc(obj); d != nil {
		d.Lock()
		if st := d.State(); (st == stateAbsent || st == stateForwarded) && epoch > d.Epoch() {
			d.SetStateLocked(stateForwarded)
			d.Fwd = at
			d.SetEpochLocked(epoch)
		}
		d.Unlock()
		return
	}
	n.hintSet(obj, at)
}

// runPinned executes one operation on a resident object whose descriptor we
// hold a pin on. It does the pin bookkeeping on the thread record, the
// processor-slot acquisition, and (optionally) immutable write detection.
//
// readOnly is the caller's classification hint (per-call WithReadOnly or a
// remote envelope's flag); the registry's per-method declaration is OR-ed in
// here. On a cacheable object (leasable bit) the call runs under the object's
// coherence lock — shared for reads, exclusive for writes — and a write, once
// the lock is released, bumps the residency epoch and fences every
// outstanding reader lease before returning (lease.go). The leasable bit is
// captured ONCE: SetCacheable drains pins before flipping it, so it cannot
// change mid-call, but a single capture keeps the lock/unlock pairing
// self-evident.
func (n *Node) runPinned(c *Ctx, d *descriptor, obj gaddr.Addr, method string, args []any, readOnly bool) (res []any, err error) {
	c.rec.Pins = append(c.rec.Pins, obj)
	defer func() {
		c.rec.Pins = c.rec.Pins[:len(c.rec.Pins)-1]
		n.unpin(d)
	}()
	c.acquireSlot(n)
	defer c.releaseSlot(n)
	n.cResidency.Inc()

	// The pin we hold licenses a lock-free read of the payload: it was
	// published before the word went resident and cannot be cleared until we
	// unpin (see the objspace.Descriptor synchronization contract). The
	// immutable bit comes off the packed word — one atomic load.
	p := &d.Payload
	ti := p.ti
	checkImmutable := n.cfg.DebugImmutable && d.Immutable()
	if ti == nil {
		return nil, fmt.Errorf("%w: %#x has no type", ErrNoSuchObject, uint64(obj))
	}
	mi, err := ti.method(method)
	if err != nil {
		return nil, err
	}
	var before []byte
	if checkImmutable {
		before, _ = wire.Marshal(p.obj.Elem().Interface())
	}
	coh := d.Leasable() && !d.Immutable()
	ro := readOnly || mi.readOnly
	if coh {
		if ro {
			d.Coh.RLock()
		} else {
			d.Coh.Lock()
		}
	}
	res, err = p.call(mi, c, args)
	if coh {
		if ro {
			d.Coh.RUnlock()
		} else {
			d.Coh.Unlock()
			// The fence runs even when the method errored: user code may have
			// mutated state before failing, and a spurious bump only costs a
			// revoke round. The pin we hold keeps the object resident for the
			// fence's duration; the thread parks its processor slot while
			// revokes are in flight.
			n.leaseWriteFence(c, d, obj)
		}
	}
	if checkImmutable && err == nil {
		after, _ := wire.Marshal(p.obj.Elem().Interface())
		if !bytes.Equal(before, after) {
			n.counts.Inc("immutable_violations")
			return nil, fmt.Errorf("%w: %s.%s", ErrImmutableViolated, ti.name, method)
		}
	}
	return res, err
}

// unpin releases one pin; the last pin out of a moving object triggers the
// deferred shipment. The fast path (resident, no waiters) is a single CAS
// inside Unpin; only contended descriptors take the mutex.
func (n *Node) unpin(d *descriptor) {
	if mv := d.Unpin(); mv != nil {
		mv.MemberDrained()
	}
}

// handleRouted services routed operations arriving from the network: execute
// here, or forward along the chain with a detached reply (§3.3).
func (n *Node) handleRouted(rc *rpc.Ctx) {
	var msg routedMsg
	if err := wire.UnmarshalFrom(rc.Body, &msg); err != nil {
		rc.Reply(nil, err)
		return
	}
	err := n.dispatch(&msg, nil, func(d *descriptor) error {
		return n.executeRouted(rc, d, &msg)
	}, func(to gaddr.NodeID) error {
		return n.forward(rc, &msg, to)
	})
	if err != nil {
		rc.Reply(nil, err)
	}
}

// executeRouted performs a routed operation that resolve directed at this
// node. Lock contract: for opInvoke and opChain, d arrives pinned and
// unlocked; for the control ops, d arrives locked and the executor releases
// it. Returns nil when a reply or forward has been sent; a retryRoute to
// re-run the entry protocol; any other error for the caller to report.
func (n *Node) executeRouted(rc *rpc.Ctx, d *descriptor, msg *routedMsg) error {
	switch msg.Op {
	case opInvoke:
		return n.executeInvoke(rc, d, msg)
	case opChain:
		return n.executeChain(rc, d, msg)
	}
	rep, err := n.executeControl(d, msg, rc.Origin)
	if err != nil {
		return err
	}
	var body []byte
	if rep != nil {
		if body, err = wire.MarshalInto(rep); err != nil {
			return err
		}
	}
	rc.Reply(body, nil)
	wire.PutBuf(body) // Reply sent a copy
	return nil
}

// executeInvoke runs an arriving invocation on d (pinned) and replies to the
// origin.
func (n *Node) executeInvoke(rc *rpc.Ctx, d *descriptor, msg *routedMsg) error {
	// Scratch decode: the argument vector dies with this call (user code
	// receives the values, never the spine), so the []any comes from the
	// wire package's pool and goes back once the operation has run.
	args, err := wire.UnmarshalArgsScratch(msg.Args)
	if err != nil {
		n.unpin(d)
		return err
	}
	// The migrated thread resumes here with its identity and bindings
	// (§3.4): this context *is* the thread, executing on this node now.
	c := &Ctx{node: n, rec: msg.Thread}
	// The arriving thread's journey continues under the shipping span
	// carried by the rpc envelope: this execution span parents under it.
	tr := n.tracer
	tid := rc.Trace.TraceID
	if tid == 0 {
		tid = msg.Thread.ID // origin was not tracing (or sampled out); stitch locally
	}
	// Sampling is by journey: both ends apply the same modulus to the
	// same thread ID, so a sampled journey is whole across nodes.
	traced := tr.OnFor(tid)
	if traced {
		c.span = tr.NextSpan()
		tr.Emit(trace.Event{Kind: trace.KMigrateIn, Trace: tid, Span: c.span,
			Parent: rc.Trace.SpanID, Thread: msg.Thread.ID, Obj: uint64(msg.Obj), Arg: int64(rc.From)})
		tr.Emit(trace.Event{Kind: trace.KExecStart, Trace: tid, Span: c.span,
			Parent: rc.Trace.SpanID, Thread: msg.Thread.ID, Obj: uint64(msg.Obj), Label: msg.Method})
	}
	n.counts.Inc("invokes_executed_for_remote")
	if n.heat != nil && !d.Immutable() {
		// Attribute the invoke to the thread's origin node: the dominant
		// caller is where the object should live (§4).
		n.heatObserve(msg.Obj, rc.Origin)
	}
	// Read the epoch while still pinned: a pin holds off the shipment, so
	// this is the version of the residency that executes the call.
	epoch := d.Epoch()
	// Classify read-vs-write while still pinned (the pin licenses the
	// payload read): the classification picks the coherence-lock side in
	// runPinned and decides whether this reply may carry a reader lease.
	readOnly := msg.Flags&rmFlagReadOnly != 0
	if !readOnly {
		if ti := d.Payload.ti; ti != nil {
			if mi, ok := ti.methods[msg.Method]; ok {
				readOnly = mi.readOnly
			}
		}
	}
	grantable := readOnly && n.leaseTTL > 0 && msg.Flags&rmFlagLeaseOK != 0 &&
		msg.SnapMax > 0 && d.Leasable() && !d.Immutable() && rc.Origin != n.id
	start := time.Now()
	results, err := n.runPinned(c, d, msg.Obj, msg.Method, args, readOnly)
	wire.PutArgs(args)
	elapsed := time.Since(start)
	n.histExec.Observe(elapsed)
	if traced {
		n.exExec.Note(elapsed, tid)
		tr.Emit(trace.Event{Kind: trace.KExecEnd, Trace: tid, Span: c.span,
			Parent: rc.Trace.SpanID, Thread: msg.Thread.ID, Obj: uint64(msg.Obj), Label: msg.Method})
		tr.Emit(trace.Event{Kind: trace.KMigrateOut, Trace: tid, Span: c.span,
			Thread: msg.Thread.ID, Obj: uint64(msg.Obj), Arg: int64(rc.Origin)})
	}
	if !readOnly && d.Leasable() {
		// runPinned's write fence bumped the residency epoch; the reply's
		// location claim (and the chain updates below) must carry the
		// post-write version so stale caches cannot outrank it.
		epoch = d.Epoch()
	}
	if err != nil {
		rc.Reply(nil, err)
		n.sendChainUpdates(msg.Obj, epoch, msg.Chain, rc.Origin)
		return nil
	}
	// Read-path replication (§2.3): if the origin asked for a snapshot and
	// the object is immutable, piggyback its encoding on this reply so the
	// origin installs a local replica in the same round trip. The mutable
	// generalization: a read-only invoke on a cacheable object piggybacks
	// a reader lease instead (state + epoch + lifetime).
	ir := invokeReply{ResultVals: results, Node: n.id, Epoch: epoch, Immutable: d.Immutable()}
	if msg.SnapMax > 0 && ir.Immutable {
		ir.SnapType, ir.SnapState = n.replicaSnapshot(d, msg.SnapMax)
	} else if grantable {
		n.leaseGrantTo(rc.Origin, d, msg.Obj, msg.SnapMax, &ir)
		if ir.Lease {
			epoch = ir.Epoch // the grant's residency claim (may be newer)
		}
	}
	body, err := wire.MarshalInto(&ir)
	if err != nil {
		rc.Reply(nil, err) // a result value the codec cannot carry
		return nil
	}
	rc.Reply(body, nil)
	wire.PutBuf(body) // Reply sent a copy
	n.sendChainUpdates(msg.Obj, epoch, msg.Chain, rc.Origin)
	return nil

}
