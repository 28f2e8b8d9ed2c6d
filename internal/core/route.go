package core

import (
	"errors"
	"fmt"
	"time"

	"amber/internal/gaddr"
	"amber/internal/objspace"
	"amber/internal/rpc"
	"amber/internal/trace"
	"amber/internal/wire"
)

// The routing engine (§3.3). Every routed operation — invoke, async invoke,
// chain, the control operations and Locate — reaches its object through one
// entry protocol (resolve) driven by one loop (dispatch):
//
//   - Origin side. invoke, asyncInvoke, chainInvoke and control call
//     dispatch with what to run if the object is resident here and how to
//     ship the operation if it is not. A shipped attempt that fails on a
//     routing error climbs one recovery ladder (reroute): one retry after
//     dropping a stale location hint, then up to maxRestarts fresh-chain
//     restarts after ErrRoutingLost.
//   - Executor side. handleRouted, executeChain's next step and the attach
//     hand-off call dispatch with the executor and one forward step
//     (forward): refuse a peer believed down, append this node to the chain,
//     and pass the request on with a detached reply.
//
// Transient states never sleep-poll. An executor that finds the operation's
// own object changed re-runs the entry protocol, which waits out a move on
// the descriptor's condition variable. One that finds another object it
// depends on (an attachment-component member, an attach peer) mid-transition
// returns a retryRoute naming that descriptor; dispatch waits on its
// condition variable until it leaves the state it was found in (or the
// caller's deadline passes), then re-runs. A forwarding pointer at this very
// node is waited out the same way.

// Routing limits, declared once.
const (
	// maxHops bounds one forwarded chase: a request that has visited this
	// many nodes answers ErrRoutingLost instead of forwarding again. True
	// cycles cannot form (every tombstone points forward in time), so this
	// is a backstop against an object migrating as fast as it is chased.
	maxHops = 128
	// maxRestarts bounds the origin's fresh-chain restarts after
	// ErrRoutingLost. Routing-lost replies are generated before any
	// execution, so a restart cannot apply an operation twice.
	maxRestarts = 4
	// maxReroutes bounds the entry-protocol re-runs one dispatch makes after
	// retryRoute signals and self-pointers, and the attempts a move makes to
	// lock an attachment component that keeps growing. Each re-run follows a
	// completed state transition, so the bound is only reached by an object
	// that changes state this many times in a row under one request.
	maxReroutes = 64
)

// action is the outcome of the entry protocol.
type action uint8

const (
	actExecute action = iota + 1
	actForward
	actError
)

// retryRoute is the internal signal that an object changed state between
// routing and execution: re-run the entry protocol, after waiting for d
// (when non-nil) to leave the state it was found in. dispatch consumes it;
// it never reaches a caller.
type retryRoute struct {
	d    *descriptor
	obj  gaddr.Addr // d's object, for the error if the wait gives up
	seen objspace.State
}

func (*retryRoute) Error() string { return "amber: internal: retry routing" }

// errRetryRoute re-routes at once. Executors return it when the operation's
// own object changed state: the entry protocol itself waits out a move and
// follows a forwarding pointer.
var errRetryRoute error = &retryRoute{}

// retryOn re-routes once d — another object the operation depends on, such
// as an attachment-component member — has left state seen: a move that has
// to finish, or a batch install still on its way in.
func retryOn(d *descriptor, obj gaddr.Addr, seen objspace.State) error {
	return &retryRoute{d: d, obj: obj, seen: seen}
}

// resolve applies the entry protocol (§3.2–§3.3, §3.5) for msg on this node:
//
//   - resident → execute here. For opInvoke the descriptor is returned
//     *pinned and unlocked*; the pin is taken atomically with the residency
//     check, which closes the multiprocessor check-then-enter race of §3.5.
//     For control operations the descriptor is returned *locked* (ownership
//     of d.mu transfers to the executor).
//   - forwarded → chase the forwarding address (§3.3).
//   - uninitialized (absent) → forward to the home node computed from the
//     address alone (§3.3).
//   - moving → wait for the move to finish; exceptions: a thread already
//     bound to the object may re-enter, and Locate answers immediately
//     (the contents have not left yet).
//
// dispatch is its only caller.
func (n *Node) resolve(msg *routedMsg) (d *descriptor, act action, to gaddr.NodeID, err error) {
	d = n.desc(msg.Obj)
	if d == nil {
		a, t, e := n.homeFallback(msg.Obj)
		return nil, a, t, e
	}
	// Fast path: for an invocation on a resident object, the residency check
	// and the pin are one CAS on the packed state word — no shard lock, no
	// descriptor mutex (§3.5). Everything else (moving, forwarded, deleted,
	// control ops) falls through to the locked entry protocol below.
	if (msg.Op == opInvoke || msg.Op == opChain) && d.TryPin() {
		if d.Lease() {
			// A reader-lease copy serves only local read-only invokes, and
			// only while live; everything else chases back to the grantor.
			if to, serve := n.leaseRedirect(d, msg); !serve {
				n.unpin(d)
				return nil, actForward, to, nil
			}
		}
		return d, actExecute, 0, nil
	}
	d.Lock()
	for {
		switch st := d.State(); st {
		case stateAbsent:
			// Hint entry created but never initialized; treat as absent.
			d.Unlock()
			a, t, e := n.homeFallback(msg.Obj)
			return nil, a, t, e
		case stateDeleted:
			d.Unlock()
			return nil, actError, 0, fmt.Errorf("%w: %#x", ErrDeleted, uint64(msg.Obj))
		case stateForwarded:
			to := d.Fwd
			d.Unlock()
			return nil, actForward, to, nil
		case stateResident:
			if msg.Op == opInvoke || msg.Op == opChain {
				d.PinLocked()
				d.Unlock()
				if d.Lease() {
					if to, serve := n.leaseRedirect(d, msg); !serve {
						n.unpin(d)
						return nil, actForward, to, nil
					}
				}
				return d, actExecute, 0, nil
			}
			if d.Lease() {
				// Control operations (move, delete, locate, attach...) act on
				// the real object, never on a cached lease copy: forward to
				// the grantor, whose tombstones chase onward if it moved.
				to := d.Payload.src
				d.Unlock()
				return nil, actForward, to, nil
			}
			return d, actExecute, 0, nil // d.mu held for control ops
		case stateMoving:
			switch {
			case (msg.Op == opInvoke || msg.Op == opChain) && msg.Thread.pinned(msg.Obj):
				// A bound thread re-entering the object it already
				// occupies; the move is waiting on it anyway.
				d.PinLocked()
				d.Unlock()
				return d, actExecute, 0, nil
			case msg.Op == opLocate:
				return d, actExecute, 0, nil // still here; d.mu held
			default:
				n.counts.Inc("entries_blocked_on_move")
				d.Wait()
			}
		default:
			d.Unlock()
			return nil, actError, 0, fmt.Errorf("amber: descriptor in impossible state %d", st)
		}
	}
}

// homeFallback routes a reference with no local descriptor: first through the
// location-hint cache (a warm §3.3 forwarding address learnt from replies and
// oneway chain updates), then to the home node computed from the address
// ("the kernel forwards the request to the object's home node").
//
// A hint pointing at a peer currently believed dead is dropped rather than
// followed — hint-cache repair, so stale hints cannot keep routing threads
// into a dead node — and the request falls back to the home path.
func (n *Node) homeFallback(obj gaddr.Addr) (action, gaddr.NodeID, error) {
	if at, ok := n.hintGet(obj); ok && at != n.id {
		if n.ep.PeerDown(at) {
			n.hintDrop(obj)
			n.counts.Inc("hints_dropped_down")
		} else {
			n.cHintHits.Inc()
			if n.tracer.On() {
				n.tracer.Emit(trace.Event{Kind: trace.KHintHit, Obj: uint64(obj), Arg: int64(at)})
			}
			return actForward, at, nil
		}
	}
	n.cHintMisses.Inc()
	if n.tracer.On() {
		n.tracer.Emit(trace.Event{Kind: trace.KHintMiss, Obj: uint64(obj)})
	}
	home := n.homeOf(obj)
	if home == gaddr.NoNode {
		return actError, 0, fmt.Errorf("%w: %#x (unallocated region)", ErrNoSuchObject, uint64(obj))
	}
	if home == n.id {
		// We are the home node; if the object existed we would have a
		// descriptor (creation initializes it here, and it survives as a
		// forwarding tombstone after a move).
		return actError, 0, fmt.Errorf("%w: %#x", ErrNoSuchObject, uint64(obj))
	}
	return actForward, home, nil
}

// ladder is an origin's recovery state for one routed call. The zero value
// is not ready; build it with newLadder.
type ladder struct {
	// wait bounds the transient-state waits of one dispatch: the caller's
	// deadline when it set one, else how long a move may take to drain.
	wait        time.Duration
	restarts    uint8
	hintRetried bool
}

func (n *Node) newLadder(o callOpts) ladder {
	if o.deadline > 0 {
		return ladder{wait: o.deadline}
	}
	return ladder{wait: n.cfg.MoveDrainTimeout}
}

// dispatch is the routing engine's loop and resolve's only caller. It runs
// the entry protocol for msg and hands the outcome to exec (the object is
// resident here; d per resolve's lock contract) or fwd (the operation must
// travel to the returned node). Either may return a retryRoute to re-run the
// entry protocol after the named descriptor's transition.
//
// l is the origin's recovery ladder; executors pass nil. With a ladder, an
// fwd error that looks like a stale route (see reroute) re-runs the entry
// protocol instead of failing. exec's errors are final: a local execution's
// outcome is never a routing artifact.
func (n *Node) dispatch(msg *routedMsg, l *ladder, exec func(*descriptor) error, fwd func(gaddr.NodeID) error) error {
	wait := n.cfg.MoveDrainTimeout
	if l != nil {
		wait = l.wait
	}
	var deadline time.Time // of all transient-state waits, set by the first
	for tries := 0; ; tries++ {
		d, act, to, err := n.resolve(msg)
		switch act {
		case actExecute:
			err = exec(d)
		case actForward:
			if to == n.id {
				// A forwarding pointer at ourselves can only be a transition
				// caught mid-flight; wait for it to land.
				err = retryOn(n.desc(msg.Obj), msg.Obj, stateForwarded)
				break
			}
			err = fwd(to)
			if err != nil && l != nil && n.reroute(l, msg.Obj, msg.Thread.ID, err) {
				err = errRetryRoute
			}
		}
		r, retry := err.(*retryRoute)
		if !retry {
			return err
		}
		if r.d != nil {
			if deadline.IsZero() {
				deadline = time.Now().Add(wait)
			}
			if !n.awaitTransition(r.d, r.seen, time.Until(deadline)) {
				n.counts.Inc("routing_lost")
				return fmt.Errorf("%w: %s %#x: %#x stayed %v here",
					ErrRoutingLost, msg.Op, uint64(msg.Obj), uint64(r.obj), r.seen)
			}
		}
		if tries >= maxReroutes {
			n.counts.Inc("routing_lost")
			return fmt.Errorf("%w: %s %#x kept changing state", ErrRoutingLost, msg.Op, uint64(msg.Obj))
		}
	}
}

// reroute is the origin's recovery ladder for a shipped attempt on obj that
// failed with err: report whether to re-run the entry protocol. A routed call
// that dead-ends may have been steered by a stale location hint, so the
// first rung forgets the hint and retries through the home node. The second
// restarts a chase that ran out of hops replaying the movement history of an
// object that kept migrating ahead of it; bounded so a true routing hole
// still surfaces.
func (n *Node) reroute(l *ladder, obj gaddr.Addr, tid uint64, err error) bool {
	if !staleRouteError(err) {
		return false
	}
	if !l.hintRetried && n.hintDrop(obj) {
		l.hintRetried = true
		n.counts.Inc("hint_retries")
		if tr := n.tracer; tr.OnFor(tid) {
			tr.Emit(trace.Event{Kind: trace.KHintStaleRetry, Trace: tid, Thread: tid, Obj: uint64(obj)})
		}
		return true
	}
	if errors.Is(err, ErrRoutingLost) && l.restarts < maxRestarts {
		l.restarts++
		n.counts.Inc("routing_restarts")
		return true
	}
	return false
}

// staleRouteError reports whether err is consistent with routing through a
// stale location hint (rather than a definite answer like ErrDeleted).
// ErrNodeDown counts: the hint may have steered the call into a dead node
// while the object lives elsewhere, so one retry through the home node is
// warranted before giving up.
func staleRouteError(err error) bool {
	return errors.Is(err, ErrNoSuchObject) || errors.Is(err, ErrRoutingLost) ||
		errors.Is(err, ErrNodeDown)
}

// awaitTransition blocks until d leaves state seen, or until timeout.
// Reports whether it left.
func (n *Node) awaitTransition(d *descriptor, seen objspace.State, timeout time.Duration) bool {
	n.counts.Inc("route_waits")
	d.Lock()
	defer d.Unlock()
	return waitLocked(d, timeout, func() bool { return d.State() == seen })
}

// waitLocked waits (holding d.mu, via the condition variable) while blocked
// reports true, for at most timeout. Reports whether the wait ended with
// blocked false.
//
// The waiter registration brackets the entire loop — including the first
// check — because pin-count predicates race with the lock-free Unpin fast
// path: only once the waiter flag is up is every unpin guaranteed to
// broadcast (see Descriptor.Wait).
func waitLocked(d *descriptor, timeout time.Duration, blocked func() bool) bool {
	d.AddWaiter()
	defer d.RemoveWaiter()
	if !blocked() {
		return true
	}
	deadline := time.Now().Add(timeout)
	expired := false
	timer := time.AfterFunc(timeout, func() {
		d.Lock()
		expired = true
		d.Broadcast()
		d.Unlock()
	})
	defer timer.Stop()
	for blocked() {
		if expired || time.Now().After(deadline) {
			return false
		}
		d.CondWait()
	}
	return true
}

// waitPinsLocked waits (holding d.mu) until the pin count reaches zero or the
// timeout expires. Reports success.
func waitPinsLocked(d *descriptor, timeout time.Duration) bool {
	return waitLocked(d, timeout, func() bool { return d.Pins() > 0 })
}

// forward is the executor's one forward step (§3.3): pass msg on toward `to`
// with a detached reply, so whichever node finally executes it answers the
// origin directly. The returned error, if any, is the caller's to reply.
//
// Revisiting a node is legitimate — an object can move back to a node the
// request already passed through, and the descriptor will have changed by
// the second visit. A long chain means the object migrates about as fast as
// it is chased; forwarding at once is right, because every tombstone points
// forward in time, so the chase replays the movement history and wins as
// soon as it lands inside any residency window. maxHops bounds it, and the
// origin restarts with a fresh chain if the history is longer than that.
func (n *Node) forward(rc *rpc.Ctx, msg *routedMsg, to gaddr.NodeID) error {
	if len(msg.Chain) >= maxHops {
		n.counts.Inc("routing_lost")
		tail := msg.Chain
		if len(tail) > 12 {
			tail = tail[len(tail)-12:]
		}
		return fmt.Errorf("%w: %s %#x after %d hops (tail %v)",
			ErrRoutingLost, msg.Op, uint64(msg.Obj), len(msg.Chain), tail)
	}
	// Forwarding-chain repair: refuse to forward into a peer this node
	// believes dead — answer the origin with ErrNodeDown now instead of
	// letting the request vanish into silence. Liveness is passive: a peer
	// that has sent us anything within the recheck window is alive, and
	// only a silent one gets a probe (whose failure is what teaches
	// PeerDown), so a healthy chain costs no ping/pong.
	if n.ep.PeerDown(to) {
		n.counts.Inc("forwards_refused_down")
		return fmt.Errorf("%w: next hop %d for %s %#x", ErrNodeDown, to, msg.Op, uint64(msg.Obj))
	}
	n.ep.WatchSilent(to)
	msg.Chain = append(msg.Chain, n.id)
	body, err := wire.MarshalInto(msg)
	if err != nil {
		return err
	}
	n.counts.Inc("forwards")
	if n.tracer.On() {
		n.tracer.Emit(trace.Event{Kind: trace.KForward, Trace: rc.Trace.TraceID,
			Span: rc.Trace.SpanID, Thread: msg.Thread.ID, Obj: uint64(msg.Obj), Arg: int64(to)})
	}
	if err := rc.Forward(to, procRouted, body); err != nil {
		n.counts.Inc("forward_failed")
	}
	wire.PutBuf(body) // Forward sent a copy
	return nil
}

// send is the origin's shipping leg: msg leaves this node toward `to` on a
// fresh chain, and the calling thread — c, or none for kernel-level callers —
// gives up its processor slot until the reply payload arrives. The caller
// decodes the payload and returns it to the pool.
func (n *Node) send(c *Ctx, msg *routedMsg, to gaddr.NodeID, ti rpc.TraceInfo, o callOpts) ([]byte, error) {
	msg.Chain = append(msg.Chain[:0], n.id)
	body, err := wire.MarshalInto(msg)
	if err != nil {
		return nil, err
	}
	var resp []byte
	call := func() { resp, err = n.callWith(to, procRouted, body, ti, o) }
	if c != nil {
		c.Block(call)
	} else {
		call()
	}
	wire.PutBuf(body) // the rpc layer sent a copy
	if err != nil {
		return nil, mapRemoteError(err)
	}
	return resp, nil
}

// replyLeg is the origin's return leg for every shipped invocation — sync or
// async, single or chain: decode the reply, learn where obj executed, queue
// the piggybacked replica or lease for installation, and decode the results.
// It takes ownership of resp.
func (n *Node) replyLeg(obj gaddr.Addr, resp []byte) ([]any, error) {
	var ir invokeReply
	if err := wire.UnmarshalFrom(resp, &ir); err != nil {
		wire.PutBuf(resp)
		return nil, err
	}
	// Return-time check accounting (§3.5): the thread returns to this node;
	// its enclosing object, if any, is pinned by this same thread and is
	// therefore still resident — under the drain protocol the check cannot
	// fail, which is exactly why the protocol is safe.
	n.counts.Inc("return_checks")
	n.learnLocation(obj, ir.Node, ir.Epoch)
	if ir.Immutable {
		// The call shipped to an immutable object: a miss the replica layer
		// could have absorbed.
		n.cReplicaMiss.Inc()
	}
	// A piggybacked snapshot — an immutable replica, or a reader lease on a
	// cacheable mutable object — installs asynchronously so the decode is
	// not charged to this (cold) call's latency. ir.SnapState aliases resp,
	// so the installer gets an owned copy before the buffer is pooled.
	if n.replicaOn && ir.SnapType != "" && (ir.Immutable || ir.Lease && ir.LeaseNs > 0) {
		n.queueReplicaInstall(replicaInstall{
			obj: obj, from: ir.Node, typ: ir.SnapType, state: append([]byte(nil), ir.SnapState...),
			epoch: ir.Epoch, lease: !ir.Immutable, ttl: int64(ir.LeaseNs),
		})
	}
	// ir.Results aliases resp; UnmarshalArgs copies the values out, after
	// which the reply buffer can go back to the pool.
	out, err := wire.UnmarshalArgs(ir.Results)
	wire.PutBuf(resp)
	return out, err
}
