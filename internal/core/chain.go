package core

import (
	"fmt"
	"time"

	"amber/internal/gaddr"
	"amber/internal/rpc"
	"amber/internal/wire"
)

// Continuation shipping: a chain of invocations on (presumed) co-located
// remote objects travels as ONE message and executes at the destination,
// returning to the origin once — instead of one full round trip per call.
// The shipped thread was already a continuation (§3.4 of the paper; compare
// Tarau's mobile first-order continuations): opChain just lets it carry more
// than one pending call. If the chain's objects turn out not to be
// co-located, the remainder of the chain forwards onward with a detached
// reply, so the origin still pays exactly one round trip.

// ChainStep is one invocation in a shipped chain: call Method on Obj with
// Args. An argument equal to ChainPrev is substituted, at execution time,
// with the first result of the previous step — the dataflow that makes a
// chain more than a batch.
type ChainStep struct {
	Obj    Ref
	Method string
	Args   []any
}

// chainPrevArg is the marker type behind ChainPrev. Registered with the wire
// codec so it survives marshalling when a chain ships mid-execution.
type chainPrevArg struct{}

// ChainPrev, used as an argument in a ChainStep, is replaced with the first
// result of the preceding step when that step executes.
var ChainPrev chainPrevArg

func init() { wire.Register(chainPrevArg{}) }

// substituteChainPrev replaces ChainPrev markers with the previous step's
// first result. Marker-free argument lists pass through untouched.
func substituteChainPrev(args, prev []any) []any {
	out := args
	copied := false
	for i, a := range args {
		if _, ok := a.(chainPrevArg); ok {
			if !copied {
				out = append([]any(nil), args...)
				copied = true
			}
			if len(prev) > 0 {
				out[i] = prev[0]
			} else {
				out[i] = nil
			}
		}
	}
	return out
}

// chainStepWire is ChainStep's wire form. A step decoded from the wire
// carries its encoded Args; a step built from a ChainStep carries ArgVals
// (set when non-nil, see vals), encoded in place.
type chainStepWire struct {
	Obj     gaddr.Addr
	Method  string
	Args    []byte
	ArgVals []any
}

// chainMsg rides routedMsg.Args for opChain: the remaining steps plus the
// previous step's results (for ChainPrev substitution at the next executor).
// Prev is the decode side; PrevVals, the encode side, is always what is sent.
type chainMsg struct {
	Steps    []chainStepWire
	Prev     []byte
	PrevVals []any
}

// AppendWireErr implements wire.FallibleCodec; routedMsg.AppendWireErr
// nests the chain in place (wire.AppendMarshalled).
func (m *chainMsg) AppendWireErr(b []byte) ([]byte, error) {
	b = wire.AppendUvarint(b, uint64(len(m.Steps)))
	var err error
	for _, s := range m.Steps {
		b = wire.AppendUvarint(b, uint64(s.Obj))
		b = wire.AppendString(b, s.Method)
		if s.ArgVals != nil {
			if b, err = wire.AppendArgsPrefixed(b, s.ArgVals); err != nil {
				return nil, err
			}
		} else {
			b = wire.AppendBytes(b, s.Args)
		}
	}
	return wire.AppendArgsPrefixed(b, m.PrevVals)
}

// DecodeWire implements wire.FallibleCodec. Step args and Prev alias b; the
// executor decodes values out of them before the enclosing payload is
// recycled.
func (m *chainMsg) DecodeWire(b []byte) ([]byte, error) {
	var err error
	var cnt uint64
	if cnt, b, err = wire.ReadUvarint(b); err != nil {
		return nil, err
	}
	m.Steps = nil
	if cnt > 0 {
		if cnt > uint64(len(b)) {
			return nil, wire.ErrShortBuffer
		}
		m.Steps = make([]chainStepWire, cnt)
		for i := range m.Steps {
			var u uint64
			if u, b, err = wire.ReadUvarint(b); err != nil {
				return nil, err
			}
			m.Steps[i].Obj = gaddr.Addr(u)
			if m.Steps[i].Method, b, err = wire.ReadString(b); err != nil {
				return nil, err
			}
			if m.Steps[i].Args, b, err = wire.ReadBytes(b); err != nil {
				return nil, err
			}
		}
	}
	if m.Prev, b, err = wire.ReadBytes(b); err != nil {
		return nil, err
	}
	return b, nil
}

// InvokeChain executes steps in order, feeding each step's results to the
// next via ChainPrev, and returns the last step's results. Steps on locally
// resident objects run inline; at the first remote step the remaining chain
// ships as one message and the reply carries the final results — co-located
// remote objects cost one round trip for the whole chain. CallOptions apply
// to the shipped leg like any routed call.
func (c *Ctx) InvokeChain(steps []ChainStep, opts ...CallOption) ([]any, error) {
	if len(steps) == 0 {
		return nil, fmt.Errorf("%w: empty chain", ErrBadArgument)
	}
	return c.node.chainInvoke(c, steps, gatherOptions(opts))
}

// AsyncInvokeChain is InvokeChain as a Future: the chain runs as a fresh
// thread journey (its own thread ID) on its own goroutine. Unlike
// AsyncInvoke it does not ride the per-peer pipeline — a chain is already
// the batching — but its shipped leg still shares the pipeline's transport.
func (c *Ctx) AsyncInvokeChain(steps []ChainStep, opts ...CallOption) *Future {
	n := c.node
	if len(steps) == 0 {
		return completedFuture(nil, fmt.Errorf("%w: empty chain", ErrBadArgument))
	}
	o := gatherOptions(opts)
	f := newFuture()
	rec := ThreadRec{ID: n.newThreadID(), Home: n.id, Priority: c.rec.Priority}
	n.counts.Inc("async_invokes")
	go func() {
		tc := &Ctx{node: n, rec: rec}
		res, err := n.chainInvoke(tc, steps, o)
		f.complete(res, err)
	}()
	return f
}

// chainInvoke is the origin-side driver: run the locally resident prefix
// inline, ship the remainder. Each step goes through the routing engine, so
// the shipped leg climbs the same recovery ladder as invoke.
func (n *Node) chainInvoke(c *Ctx, steps []ChainStep, o callOpts) ([]any, error) {
	var prev []any
	for len(steps) > 0 {
		step := steps[0]
		if step.Obj == gaddr.Nil {
			return nil, fmt.Errorf("%w: nil reference in chain", ErrNoSuchObject)
		}
		msg := routedMsg{Op: opChain, Obj: step.Obj, Thread: c.rec, Method: step.Method}
		l := n.newLadder(o)
		shipped := false
		err := n.dispatch(&msg, &l, func(d *descriptor) error {
			n.counts.Inc("chain_steps_executed")
			res, err := n.runLocal(c, d, step.Obj, step.Method, substituteChainPrev(step.Args, prev), false)
			prev = res
			return err
		}, func(to gaddr.NodeID) error {
			res, err := n.shipChain(c, steps, prev, to, o)
			prev, shipped = res, err == nil
			return err
		})
		if err != nil {
			return nil, err
		}
		if shipped {
			break
		}
		steps = steps[1:]
	}
	return prev, nil
}

// shipChain sends the remaining steps (and the previous results) to the
// believed location of the first one and blocks for the single reply that
// whichever node executes the last step sends back.
func (n *Node) shipChain(c *Ctx, steps []ChainStep, prev []any, to gaddr.NodeID, o callOpts) ([]any, error) {
	start := time.Now()
	// The steps' arguments, the previous results and the chain itself are
	// all encoded in place, into the one routed message buffer.
	cm := chainMsg{Steps: make([]chainStepWire, len(steps)), PrevVals: prev}
	for i, s := range steps {
		cm.Steps[i] = chainStepWire{Obj: s.Obj, Method: s.Method, ArgVals: vals(s.Args)}
	}
	msg := routedMsg{Op: opChain, Obj: steps[0].Obj, Thread: c.rec, chain: &cm}
	n.counts.Inc("chains_shipped")
	var ti rpc.TraceInfo
	if tr := n.tracer; tr.OnFor(c.rec.ID) {
		ti = rpc.TraceInfo{TraceID: c.rec.ID, SpanID: c.span}
	}
	resp, err := n.send(c, &msg, to, ti, o)
	elapsed := time.Since(start)
	n.histRemote.Observe(elapsed)
	if ti.TraceID != 0 {
		n.exRemote.Note(elapsed, ti.TraceID)
	}
	if err != nil {
		return nil, err
	}
	// The reply reports where the LAST step executed; that is the freshest
	// location fact the chain produced.
	return n.replyLeg(steps[len(steps)-1].Obj, resp)
}

// executeChain services an arriving opChain. Lock contract: d (the first
// remaining step's object) arrives pinned and unlocked, exactly like
// opInvoke. Steps whose objects are resident here run in order; when a step's
// object lives elsewhere the remainder forwards onward (detached reply), and
// the last step's executor replies directly to the origin.
func (n *Node) executeChain(rc *rpc.Ctx, d *descriptor, msg *routedMsg) error {
	var cm chainMsg
	if err := wire.UnmarshalFrom(msg.Args, &cm); err != nil {
		n.unpin(d)
		return err
	}
	if len(cm.Steps) == 0 {
		n.unpin(d)
		return fmt.Errorf("%w: empty chain", ErrBadArgument)
	}
	prev, err := wire.UnmarshalArgs(cm.Prev)
	if err != nil {
		n.unpin(d)
		return err
	}
	steps := cm.Steps
	tc := &Ctx{node: n, rec: msg.Thread}
	for {
		step := steps[0]
		// Scratch decode per step: substituteChainPrev copies before it
		// substitutes, so the pooled vector is intact for reuse either way.
		sargs, err := wire.UnmarshalArgsScratch(step.Args)
		if err != nil {
			n.unpin(d)
			rc.Reply(nil, err)
			return nil
		}
		args := substituteChainPrev(sargs, prev)
		n.counts.Inc("invokes_executed_for_remote")
		n.counts.Inc("chain_steps_executed")
		if n.heat != nil && !d.Immutable() {
			n.heatObserve(step.Obj, rc.Origin)
		}
		epoch := d.Epoch()
		start := time.Now()
		res, rerr := n.runPinned(tc, d, step.Obj, step.Method, args, false)
		wire.PutArgs(sargs)
		n.histExec.Observe(time.Since(start))
		if rerr != nil {
			// A failed step fails the chain; the sentinel rehydrates at the
			// origin like any routed error.
			rc.Reply(nil, rerr)
			n.sendChainUpdates(step.Obj, epoch, msg.Chain, rc.Origin)
			return nil
		}
		prev = res
		steps = steps[1:]
		if len(steps) == 0 {
			ir := invokeReply{ResultVals: prev, Node: n.id, Epoch: epoch}
			body, err := wire.MarshalInto(&ir)
			if err != nil {
				rc.Reply(nil, err) // a result value the codec cannot carry
				return nil
			}
			rc.Reply(body, nil)
			wire.PutBuf(body) // Reply sent a copy
			n.sendChainUpdates(step.Obj, epoch, msg.Chain, rc.Origin)
			return nil
		}
		// Resolve the next step here. Objects that are co-located keep the
		// chain on this node; anything else forwards the remainder.
		nmsg := routedMsg{Op: opChain, Obj: steps[0].Obj, Thread: tc.rec, Chain: msg.Chain}
		var next *descriptor
		err = n.dispatch(&nmsg, nil, func(nd *descriptor) error {
			next = nd
			return nil
		}, func(to gaddr.NodeID) error {
			nmsg.chain = &chainMsg{Steps: steps, PrevVals: prev}
			n.counts.Inc("chains_forwarded")
			return n.forward(rc, &nmsg, to)
		})
		if err != nil {
			rc.Reply(nil, err)
			return nil
		}
		if next == nil {
			return nil // forwarded
		}
		d = next
	}
}
