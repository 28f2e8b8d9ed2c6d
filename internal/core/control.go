package core

import (
	"fmt"
	"reflect"
	"time"

	"amber/internal/gaddr"
	"amber/internal/rpc"
	"amber/internal/trace"
	"amber/internal/wire"
)

// handleInstall receives migrating objects (or immutable replicas) and makes
// them resident here. Their "address ranges are predetermined" (§3.4): the
// descriptor slot is simply the same global address, so no allocation
// happens on the receiving side.
func (n *Node) handleInstall(rc *rpc.Ctx) {
	var msg installMsg
	if err := wire.UnmarshalFrom(rc.Body, &msg); err != nil {
		rc.Reply(nil, err)
		return
	}
	// Decode and validate every snapshot before touching any descriptor, so
	// the batch applies all-or-nothing. An error reply makes the source
	// revert the WHOLE component to resident; if a prefix of the batch had
	// already been made resident here, both nodes would hold live copies of
	// those objects.
	tis := make([]*typeInfo, len(msg.Objects))
	pvs := make([]reflect.Value, len(msg.Objects))
	for i, snap := range msg.Objects {
		ti, err := n.reg.lookupName(snap.TypeName)
		if err != nil {
			rc.Reply(nil, err)
			return
		}
		pv := reflect.New(ti.elem)
		if len(snap.State) > 0 {
			stateVal, err := wire.Unmarshal(snap.State)
			if err != nil {
				rc.Reply(nil, err)
				return
			}
			sv := reflect.ValueOf(stateVal)
			if sv.Type() != ti.elem {
				rc.Reply(nil, fmt.Errorf("amber: install %#x: state is %T, want %s",
					uint64(snap.Addr), stateVal, ti.elem))
				return
			}
			pv.Elem().Set(sv)
		}
		tis[i], pvs[i] = ti, pv
	}
	// Tear down any resident reader-lease copy of an arriving object BEFORE
	// installing anything: the real object can move onto a node that holds a
	// lease on it, and overwriting the payload while lease readers hold pins
	// would race their lock-free reads. The teardown runs as a pre-pass so a
	// drain timeout still fails the batch all-or-nothing. Lease pins are
	// method-call-short, so the wait is brief.
	if !msg.Copy {
		for _, snap := range msg.Objects {
			d := n.desc(snap.Addr)
			if d == nil {
				continue
			}
			d.Lock()
			if d.State() != stateResident || !d.Lease() {
				d.Unlock()
				continue
			}
			d.SetLeaseExpiry(0) // stop serving immediately
			d.SetStateLocked(stateMoving)
			if !waitPinsLocked(d, n.cfg.MoveDrainTimeout) {
				d.SetStateLocked(stateResident)
				d.Broadcast()
				d.Unlock()
				rc.Reply(nil, fmt.Errorf("%w: install %#x over a pinned lease",
					ErrMoveTimeout, uint64(snap.Addr)))
				return
			}
			d.SetStateLocked(stateForwarded)
			d.Fwd = msg.From
			d.SetLeaseLocked(false)
			d.Payload = payload{}
			d.Broadcast()
			d.Unlock()
			n.space.ReplicaDrop(snap.Addr)
		}
	}
	for i, snap := range msg.Objects {
		ti, pv := tis[i], pvs[i]

		d := n.descEnsure(snap.Addr)
		d.Lock()
		if !msg.Copy && snap.Epoch != 0 && snap.Epoch <= d.Epoch() {
			// Stale or duplicate install: this node already has newer
			// information about the object (the residency the snapshot
			// describes has been and gone). Installing it would wind the
			// epoch backward and corrupt routing.
			d.Unlock()
			n.counts.Inc("installs_stale")
			continue
		}
		if msg.Copy && d.State() == stateResident {
			// Already holding a copy (an explicit placement racing a
			// demand-pulled replica, or a duplicated install). Immutable
			// copies are byte-identical at the same epoch, so there is
			// nothing to gain — and overwriting a resident payload would race
			// its pinned readers.
			d.Unlock()
			n.counts.Inc("replica_installs_dup")
			continue
		}
		if d.State() == stateMoving {
			// Pre-flip window of an outbound move: the object left here and
			// is already coming back. This inbound residency supersedes the
			// outbound op — clearing Mv turns its pending tombstone flip
			// into a no-op (see ship).
			d.Mv = nil
			n.counts.Inc("installs_superseded_move")
		}
		// Publication order matters: the payload, mode bits and edges are all
		// in place before the state word flips to resident — the transition
		// is what licenses lock-free TryPin readers to look at the payload.
		// Immutable arrivals keep their marshalled form in the snap cell so
		// onward replication (reply piggyback, further copies) never
		// re-encodes. snap.State aliases the request payload, which the rpc
		// layer recycles when this handler returns — the cell needs its own
		// copy.
		var cell *snapCell
		if snap.Immutable {
			cell = &snapCell{}
			if len(snap.State) > 0 {
				st := append(make([]byte, 0, len(snap.State)), snap.State...)
				cell.v.Store(&st)
			}
		}
		d.Payload = newPayload(pv, ti)
		d.Payload.snap = cell
		d.Fwd = gaddr.NoNode
		d.ClearAttachLocked()
		for _, p := range snap.Attached {
			d.AddAttach(p)
		}
		d.SetImmutableLocked(snap.Immutable)
		d.SetReplicaLocked(msg.Copy)
		// The leasable mark travels with the object: the new holder grants
		// leases from an empty grant table (the source fenced every
		// outstanding grant when it shipped the object out). Any lease bit
		// left over from a prior life of this descriptor is cleared.
		d.SetLeasableLocked(snap.Leasable && !msg.Copy)
		d.SetLeaseLocked(false)
		d.SetLeaseExpiry(0)
		d.SetEpochLocked(snap.Epoch)
		d.SetStateLocked(stateResident)
		d.Broadcast()
		d.Unlock()
		// Any hint for this object is now stale at best; the descriptor is
		// authoritative.
		n.hintDrop(snap.Addr)
	}
	if msg.Copy {
		n.counts.Add("replicas_installed", int64(len(msg.Objects)))
	} else {
		n.counts.Add("objects_moved_in", int64(len(msg.Objects)))
	}
	rc.Reply(nil, nil)
}

// control drives a mobility/control operation initiated locally by thread c
// (nil for kernel-level callers, see locateInternal) through the routing
// engine: execute if the object is resident here, otherwise ship the request
// and decode the typed reply.
func (n *Node) control(c *Ctx, msg *routedMsg, o callOpts) (rep any, err error) {
	if c != nil {
		msg.Thread = c.rec
	}
	l := n.newLadder(o)
	err = n.dispatch(msg, &l, func(d *descriptor) (err error) {
		rep, err = n.executeControl(d, msg, n.id)
		return err
	}, func(to gaddr.NodeID) (err error) {
		rep, err = n.shipControl(c, msg, to, o)
		return err
	})
	return rep, err
}

// executeControl is the one executor for control operations, whether they
// originate here or arrive from the network. d arrives locked (resolve's
// control contract) and each operation releases it. The reply is a
// *locateReply or *moveReply, or nil for the empty acknowledgements. An
// attach whose child had to move to its parent's node returns a retryRoute:
// the re-run entry protocol follows the child's new tombstone there.
func (n *Node) executeControl(d *descriptor, msg *routedMsg, origin gaddr.NodeID) (any, error) {
	switch msg.Op {
	case opLocate:
		rep := &locateReply{Node: n.id, Immutable: d.Immutable(), Epoch: d.Epoch()}
		d.Unlock()
		n.counts.Inc("locates_answered")
		n.sendChainUpdates(msg.Obj, rep.Epoch, msg.Chain, origin)
		return rep, nil
	case opMove:
		rep, err := n.executeMove(d, msg, false)
		if err != nil {
			return nil, err
		}
		return &rep, nil
	case opSetImmutable:
		return nil, n.executeSetImmutable(d, msg)
	case opSetCacheable:
		return nil, n.executeSetCacheable(d, msg)
	case opDelete:
		return nil, n.executeDelete(d, msg)
	case opAttach:
		return nil, n.executeAttach(d, msg)
	case opUnattach:
		return nil, n.executeUnattach(d, msg)
	default:
		d.Unlock()
		return nil, fmt.Errorf("amber: unknown routed op %d", msg.Op)
	}
}

// shipControl sends a control request to another node and decodes the typed
// reply. The thread blocks (releasing its processor slot) while the request
// is away, like any remote operation.
func (n *Node) shipControl(c *Ctx, msg *routedMsg, to gaddr.NodeID, o callOpts) (any, error) {
	resp, err := n.send(c, msg, to, rpc.TraceInfo{}, o)
	if err != nil {
		return nil, err
	}
	defer wire.PutBuf(resp) // typed replies below copy all fields out
	switch msg.Op {
	case opLocate:
		var lr locateReply
		if err := wire.UnmarshalFrom(resp, &lr); err != nil {
			return nil, err
		}
		n.learnLocation(msg.Obj, lr.Node, lr.Epoch)
		return &lr, nil
	case opMove:
		var mr moveReply
		if err := wire.UnmarshalFrom(resp, &mr); err != nil {
			return nil, err
		}
		n.learnLocation(msg.Obj, mr.Node, mr.Epoch)
		return &mr, nil
	default:
		return nil, nil // empty acks
	}
}

// --- Ctx-facing mobility API (§2.3) ---

// MoveTo migrates an object (with its whole attachment component) to the
// given node. Moving an immutable object copies it instead; the call returns
// once the copy is installed. A self-move (the calling thread is inside the
// object) is deferred: it completes when the thread leaves the object.
// Options (WithDeadline, WithRetry) bound and retry the shipped request;
// move retries are idempotency-protected like invokes.
func (c *Ctx) MoveTo(obj Ref, node gaddr.NodeID, opts ...CallOption) error {
	start := time.Now()
	msg := routedMsg{Op: opMove, Obj: obj, Dest: node}
	_, err := c.node.control(c, &msg, gatherOptions(opts))
	c.node.histMove.Observe(time.Since(start))
	if err != nil {
		return err
	}
	if tr := c.node.tracer; tr.OnFor(c.rec.ID) {
		tr.Emit(trace.Event{Kind: trace.KObjectMove, Trace: c.rec.ID, Parent: c.span,
			Thread: c.rec.ID, Obj: uint64(obj), Arg: int64(node)})
	}
	c.node.counts.Inc("moveto_calls")
	return nil
}

// Locate reports the node where the object currently resides. For an
// immutable object it reports the nearest node known to hold a copy.
// Options (WithDeadline, WithRetry) bound and retry the routed request.
func (c *Ctx) Locate(obj Ref, opts ...CallOption) (gaddr.NodeID, error) {
	// Fast path (§2.3): an immutable copy resident here — a demand-pulled
	// replica or an explicit placement — answers locally. The nearest node
	// holding a copy is this one; no lock, no message. TryPin succeeds only on
	// a resident descriptor, so residency and the immutable bit are both read
	// from the packed state word.
	if d := c.node.desc(obj); d != nil && d.Immutable() && d.TryPin() {
		c.node.unpin(d)
		c.node.counts.Inc("locates_local_replica")
		return c.node.id, nil
	}
	msg := routedMsg{Op: opLocate, Obj: obj}
	rep, err := c.node.control(c, &msg, gatherOptions(opts))
	if err != nil {
		return gaddr.NoNode, err
	}
	return rep.(*locateReply).Node, nil
}

// SetImmutable marks an object as never again modified (§2.3). Subsequent
// MoveTo calls copy the object, allowing replicas on many nodes. Options
// (WithDeadline, WithRetry) bound and retry the routed request.
func (c *Ctx) SetImmutable(obj Ref, opts ...CallOption) error {
	msg := routedMsg{Op: opSetImmutable, Obj: obj}
	_, err := c.node.control(c, &msg, gatherOptions(opts))
	return err
}

// SetCacheable marks a mutable object lease-granting (§2.3 generalized, see
// DESIGN.md §14): remote read-only invokes on it piggyback bounded-lifetime
// reader leases on their replies, making subsequent reads at the caller
// zero-message until the next write. Writes on a cacheable object pay for
// that: each runs under the object's exclusive coherence lock and blocks
// until every outstanding lease is revoked (or its TTL bounds the wait).
// Mark read-mostly objects, not write-hot ones. Methods are classified
// read-only via the class's AmberReadOnly declaration or per-call
// WithReadOnly. Idempotent; immutable objects are rejected (every copy of an
// immutable object is already coherent). Options (WithDeadline, WithRetry)
// bound and retry the routed request.
func (c *Ctx) SetCacheable(obj Ref, opts ...CallOption) error {
	msg := routedMsg{Op: opSetCacheable, Obj: obj}
	_, err := c.node.control(c, &msg, gatherOptions(opts))
	return err
}

// Delete destroys an object. References to it subsequently fail with
// ErrDeleted. Immutable (replicated) objects cannot be deleted. Options
// (WithDeadline, WithRetry) bound and retry the routed request.
func (c *Ctx) Delete(obj Ref, opts ...CallOption) error {
	msg := routedMsg{Op: opDelete, Obj: obj}
	_, err := c.node.control(c, &msg, gatherOptions(opts))
	return err
}

// Attach links obj to peer so they are co-resident and migrate as a unit
// (§2.3). If they are on different nodes, obj's component moves to peer's
// node first. Attachment in this implementation is symmetric: moving either
// object moves the whole component (which is what guarantees the paper's
// "always co-located" property).
// Options (WithDeadline, WithRetry) bound and retry each routed request.
func (c *Ctx) Attach(obj, peer Ref, opts ...CallOption) error {
	msg := routedMsg{Op: opAttach, Obj: obj, Peer: peer}
	_, err := c.node.control(c, &msg, gatherOptions(opts))
	return err
}

// Unattach removes the attachment between obj and peer. Options
// (WithDeadline, WithRetry) bound and retry the routed request.
func (c *Ctx) Unattach(obj, peer Ref, opts ...CallOption) error {
	msg := routedMsg{Op: opUnattach, Obj: obj, Peer: peer}
	_, err := c.node.control(c, &msg, gatherOptions(opts))
	return err
}

// NewAt creates an object and immediately places it on the given node — the
// common create-then-MoveTo idiom in one call. The object's home remains the
// creating node (home is fixed at birth, §3.3); only its residence moves.
// Options (WithDeadline, WithRetry) apply to the placement move.
func (c *Ctx) NewAt(node gaddr.NodeID, obj any, opts ...CallOption) (Ref, error) {
	ref, err := c.New(obj)
	if err != nil {
		return NilRef, err
	}
	if node == c.node.id {
		return ref, nil
	}
	if err := c.MoveTo(ref, node, opts...); err != nil {
		return NilRef, err
	}
	return ref, nil
}

// New creates an object on the node where the calling thread is currently
// executing (the paper's dynamic creation: objects are born on the creating
// node, which becomes their home). Creation is node-local and never ships a
// request; CallOptions are accepted for surface uniformity but have no
// effect here.
func (c *Ctx) New(obj any, opts ...CallOption) (Ref, error) {
	_ = opts
	return c.node.newLocalObject(obj)
}

// Invoke performs a (possibly remote) operation on obj. Arguments and
// results must be wire-registered types when the call crosses nodes; local
// calls pass values directly.
//
// CallOptions may be mixed into the argument list to shape failure behavior
// per call — they are filtered out before dispatch, so they never reach the
// method:
//
//	ctx.Invoke(ref, "Add", 5, amber.WithDeadline(time.Second),
//	    amber.WithRetry(amber.RetryPolicy{MaxAttempts: 3}))
func (c *Ctx) Invoke(obj Ref, method string, args ...any) ([]any, error) {
	rest, o := splitOptions(args)
	return c.node.invoke(c, obj, method, rest, o)
}
