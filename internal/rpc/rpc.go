// Package rpc provides the remote-procedure-call layer Amber builds on,
// modelled on Topaz/Firefly RPC (Birrell & Nelson; Schroeder & Burrows). It
// matches requests to replies by call ID and supports two patterns beyond
// plain request/response:
//
//   - Oneway: fire-and-forget messages (location-cache updates, thread
//     completion notices).
//   - Detached reply: a handler may decline to reply and instead forward the
//     request (carrying its origin and call ID) to another node; whichever
//     node finally executes it replies *directly* to the origin. This is how
//     invocations chase forwarding-address chains with a single reply hop,
//     as in §3.3 of the paper.
package rpc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"amber/internal/gaddr"
	"amber/internal/stats"
	"amber/internal/trace"
	"amber/internal/transport"
	"amber/internal/wire"
)

// Proc identifies a registered procedure.
type Proc uint8

// Message kinds at the transport level.
const (
	kindRequest transport.Kind = 1
	kindReply   transport.Kind = 2
	kindOneway  transport.Kind = 3
	// kindPing/kindPong carry health probes. They are answered directly in
	// onMessage — never dispatched through the scheduler — so a node whose
	// processors are saturated still answers probes (busy ≠ down).
	kindPing transport.Kind = 4
	kindPong transport.Kind = 5
)

// IsHealthProbe reports whether a transport kind carries a health probe
// (ping/pong). Fault hooks that model a lossy-but-alive link should let
// these through so failure classification stays ErrTimeout rather than
// escalating to ErrNodeDown.
func IsHealthProbe(k transport.Kind) bool { return k == kindPing || k == kindPong }

// TraceInfo is the trace context that rides every request envelope: the
// logical thread's journey ID and the span the request was issued under.
// Zero values mean "untraced" and cost one wire byte each, so the envelope
// carries observability identity at no measurable expense when tracing is
// off.
type TraceInfo struct {
	TraceID uint64
	SpanID  uint64
}

// requestMsg is the wire form of a request or oneway.
type requestMsg struct {
	CallID uint64
	Origin gaddr.NodeID
	Proc   Proc
	Trace  TraceInfo
	// Idem is the request's idempotency token (0 = none). Retried attempts of
	// one logical call carry the same token, so the callee's dedup window can
	// suppress re-execution and replay the original reply. See CallOpts.
	Idem uint64
	Body []byte
}

// AppendWire implements wire.Codec: requests ride the fast path.
func (m *requestMsg) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, m.CallID)
	b = wire.AppendVarint(b, int64(m.Origin))
	b = append(b, byte(m.Proc))
	b = wire.AppendUvarint(b, m.Trace.TraceID)
	b = wire.AppendUvarint(b, m.Trace.SpanID)
	b = wire.AppendUvarint(b, m.Idem)
	return wire.AppendBytes(b, m.Body)
}

// DecodeWire implements wire.Codec. Body aliases b (zero copy); it is valid
// until the enclosing payload is recycled after the handler returns.
func (m *requestMsg) DecodeWire(b []byte) ([]byte, error) {
	var err error
	var origin int64
	if m.CallID, b, err = wire.ReadUvarint(b); err != nil {
		return nil, err
	}
	if origin, b, err = wire.ReadVarint(b); err != nil {
		return nil, err
	}
	m.Origin = gaddr.NodeID(origin)
	if len(b) < 1 {
		return nil, wire.ErrShortBuffer
	}
	m.Proc, b = Proc(b[0]), b[1:]
	if m.Trace.TraceID, b, err = wire.ReadUvarint(b); err != nil {
		return nil, err
	}
	if m.Trace.SpanID, b, err = wire.ReadUvarint(b); err != nil {
		return nil, err
	}
	if m.Idem, b, err = wire.ReadUvarint(b); err != nil {
		return nil, err
	}
	if m.Body, b, err = wire.ReadBytes(b); err != nil {
		return nil, err
	}
	return b, nil
}

// replyMsg is the wire form of a reply.
type replyMsg struct {
	CallID uint64
	Body   []byte
	Err    string
}

// AppendWire implements wire.Codec.
func (m *replyMsg) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, m.CallID)
	b = wire.AppendBytes(b, m.Body)
	return wire.AppendString(b, m.Err)
}

// DecodeWire implements wire.Codec. Body aliases b (zero copy); ownership of
// the backing payload passes to whichever caller consumes the reply.
func (m *replyMsg) DecodeWire(b []byte) ([]byte, error) {
	var err error
	if m.CallID, b, err = wire.ReadUvarint(b); err != nil {
		return nil, err
	}
	if m.Body, b, err = wire.ReadBytes(b); err != nil {
		return nil, err
	}
	if m.Err, b, err = wire.ReadString(b); err != nil {
		return nil, err
	}
	return b, nil
}

// ErrTimeout is returned when a reply does not arrive but the callee still
// answers health probes: the node is alive, the call was slow or the message
// was lost. The operation may or may not have executed.
var ErrTimeout = errors.New("rpc: call timed out")

// ErrNodeDown is returned when a reply does not arrive and the callee fails
// its health probe too: the node is crashed, partitioned away, or gone. It is
// deliberately distinct from ErrTimeout so callers can treat "dead peer"
// (reroute, unwind, give up) differently from "slow peer" (wait, retry).
var ErrNodeDown = errors.New("rpc: node down")

// RemoteError wraps an error string propagated from another node.
type RemoteError struct {
	Node gaddr.NodeID
	Msg  string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("rpc: remote error from node %d: %s", e.Node, e.Msg)
}

// Ctx is passed to procedure handlers.
type Ctx struct {
	ep *Endpoint
	// From is the node that sent this message (the previous hop).
	From gaddr.NodeID
	// Origin is the node whose Call awaits the reply (equals From unless the
	// request has been forwarded).
	Origin gaddr.NodeID
	// CallID matches the reply to the origin's pending call. Zero for
	// oneways.
	CallID uint64
	// Trace is the trace context the request carried (zero when the sender
	// was not tracing). Forward propagates it unchanged, so a journey's
	// events on every node share one trace ID and parent correctly.
	Trace TraceInfo
	// Idem is the request's idempotency token (0 = none). Reply records the
	// outcome in the dedup window under this token; Forward propagates it.
	Idem uint64
	// Body is the request payload.
	Body []byte

	replied atomic.Bool
}

// IsCall reports whether the sender awaits a reply.
func (c *Ctx) IsCall() bool { return c.CallID != 0 }

// Reply sends the response to the origin node. It is a no-op for oneways and
// panics if called twice.
func (c *Ctx) Reply(body []byte, err error) {
	if !c.IsCall() {
		return
	}
	if !c.replied.CompareAndSwap(false, true) {
		panic("rpc: double reply")
	}
	msg := replyMsg{CallID: c.CallID}
	if err != nil {
		msg.Err = err.Error()
	} else {
		msg.Body = body
	}
	if c.Idem != 0 {
		// Record the outcome before sending: if the reply is lost, a retry
		// carrying the same token replays this outcome instead of re-running
		// the handler.
		c.ep.dedup.complete(c.Origin, c.Idem, msg.Body, msg.Err)
	}
	c.ep.sendReply(c.Origin, &msg)
}

// Forward re-sends this request to another node, preserving origin and call
// ID so the eventual executor replies directly to the origin. The handler
// must not also Reply.
func (c *Ctx) Forward(to gaddr.NodeID, proc Proc, body []byte) error {
	if !c.replied.CompareAndSwap(false, true) {
		panic("rpc: forward after reply")
	}
	if c.Idem != 0 {
		// This node is a forwarder, not the executor: abandon its in-flight
		// dedup entry so a retry arriving here is forwarded again rather than
		// dropped waiting for a completion that will never happen locally.
		c.ep.dedup.abandon(c.Origin, c.Idem)
	}
	msg := requestMsg{CallID: c.CallID, Origin: c.Origin, Proc: proc, Trace: c.Trace, Idem: c.Idem, Body: body}
	return c.ep.sendRequest(to, &msg, c.IsCall())
}

// Handler processes one inbound request or oneway.
type Handler func(*Ctx)

// Endpoint is one node's RPC engine.
type Endpoint struct {
	tr transport.Transport
	// coal is tr's pipelining extension, nil when the transport has none;
	// cached once so the async send path never repeats the type assertion.
	coal     transport.Coalescer
	mu       sync.Mutex
	pending  map[uint64]pendingCall
	inflight map[gaddr.NodeID]int // outstanding async calls per peer
	window   int                  // advertised pipeline window (see SetPipelineWindow)
	handlers [256]Handler
	nextID   atomic.Uint64
	counts   *stats.Set
	health   healthState
	dedup    dedupTable
	// Dispatch controls how request handlers run: NewEndpoint sets it to
	// run each request handler on its own goroutine (replies are processed
	// inline so they can never be stuck behind a slow handler). Handlers
	// that execute user code take a processor slot themselves, so no caller
	// in this module replaces the default; tests override it to observe
	// dispatch.
	Dispatch func(func())
}

type replyOutcome struct {
	body []byte
	err  error
}

// pendingCall is one entry of the reply-matching table. Exactly one of ch
// (blocking CallWith) and fn (async StartCall) is set; async entries also
// carry their deadline timer and peer so completion can cancel the one and
// decrement the other's inflight gauge.
type pendingCall struct {
	ch    chan replyOutcome
	fn    func(replyOutcome)
	timer *time.Timer
	peer  gaddr.NodeID
}

// NewEndpoint wraps a transport. The endpoint installs itself as the
// transport's handler.
func NewEndpoint(tr transport.Transport) *Endpoint {
	ep := &Endpoint{
		tr:       tr,
		pending:  make(map[uint64]pendingCall),
		inflight: make(map[gaddr.NodeID]int),
		window:   DefaultPipelineWindow,
		counts:   stats.NewSet(),
	}
	ep.coal, _ = tr.(transport.Coalescer)
	ep.Dispatch = func(f func()) { go f() }
	ep.health.init()
	ep.dedup.init()
	tr.SetHandler(ep.onMessage)
	return ep
}

// Self returns the owning node's ID.
func (ep *Endpoint) Self() gaddr.NodeID { return ep.tr.Self() }

// Stats exposes endpoint counters.
func (ep *Endpoint) Stats() *stats.Set { return ep.counts }

// HandleProc registers the handler for proc. It must be called before
// traffic arrives; re-registration replaces the handler.
func (ep *Endpoint) HandleProc(p Proc, h Handler) {
	ep.mu.Lock()
	ep.handlers[p] = h
	ep.mu.Unlock()
}

func (ep *Endpoint) handler(p Proc) Handler {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.handlers[p]
}

// Call sends a request and blocks until the reply arrives (from whichever
// node finally handles it).
func (ep *Endpoint) Call(to gaddr.NodeID, p Proc, body []byte) ([]byte, error) {
	return ep.CallTimeout(to, p, body, 0)
}

// CallTimeout is Call with a deadline; timeout<=0 waits forever.
func (ep *Endpoint) CallTimeout(to gaddr.NodeID, p Proc, body []byte, timeout time.Duration) ([]byte, error) {
	return ep.CallTraced(to, p, body, timeout, TraceInfo{})
}

// CallTraced is CallTimeout carrying an explicit trace context in the
// request envelope. The receiving handler sees it as Ctx.Trace.
//
// Like every timed call it classifies failure: a timeout probes the peer, so
// the error is ErrNodeDown when the peer is dead and ErrTimeout when it is
// merely slow (see CallWith for the full policy surface).
func (ep *Endpoint) CallTraced(to gaddr.NodeID, p Proc, body []byte, timeout time.Duration, ti TraceInfo) ([]byte, error) {
	return ep.CallWith(to, p, body, CallOpts{Timeout: timeout, Trace: ti})
}

// Oneway sends a request with no reply expected.
func (ep *Endpoint) Oneway(to gaddr.NodeID, p Proc, body []byte) error {
	msg := requestMsg{CallID: 0, Origin: ep.Self(), Proc: p, Body: body}
	return ep.sendRequest(to, &msg, false)
}

// sendRequest copies msg (and its Body) into a fresh envelope and sends it.
// msg.Body stays the caller's: it is free to recycle once this returns.
func (ep *Endpoint) sendRequest(to gaddr.NodeID, msg *requestMsg, isCall bool) error {
	b, err := wire.MarshalInto(msg)
	if err != nil {
		return err
	}
	kind := kindOneway
	if isCall {
		kind = kindRequest
	}
	ep.counts.Inc("rpc_sent")
	if err := ep.tr.Send(to, kind, b); err != nil {
		wire.PutBuf(b) // a refused send leaves the envelope with us
		return err
	}
	return nil
}

func (ep *Endpoint) sendReply(to gaddr.NodeID, msg *replyMsg) {
	b, err := wire.MarshalInto(msg)
	if err != nil {
		// A reply that cannot be marshalled would hang the caller; encode
		// the failure itself instead.
		b, _ = wire.MarshalInto(&replyMsg{CallID: msg.CallID, Err: "rpc: reply marshal: " + err.Error()})
	}
	ep.counts.Inc("rpc_replies_sent")
	if to == ep.Self() {
		// Forwarding brought the request back to its origin; complete the
		// pending call locally (the transport refuses self-sends).
		var rm replyMsg
		if err := wire.UnmarshalFrom(b, &rm); err != nil {
			wire.PutBuf(b)
			return
		}
		ep.completeCall(ep.Self(), &rm, b)
		return
	}
	if err := ep.tr.Send(to, kindReply, b); err != nil {
		wire.PutBuf(b)
		ep.counts.Inc("rpc_reply_send_failed")
	}
}

// onMessage receives inbound payloads from the transport, which hands over
// ownership: request payloads are recycled once their handler returns (Body
// aliases the payload, so handlers must not retain it past their return);
// reply payloads travel onward to the pending caller, who recycles them
// after decoding.
func (ep *Endpoint) onMessage(m transport.Message) {
	// Any inbound traffic proves the sender is alive; only pay the map lookup
	// while at least one peer is marked down.
	if ep.health.downCount.Load() != 0 {
		ep.noteAlive(m.From)
	}
	switch m.Kind {
	case kindReply:
		var rm replyMsg
		if err := wire.UnmarshalFrom(m.Payload, &rm); err != nil {
			ep.counts.Inc("rpc_bad_reply")
			wire.PutBuf(m.Payload)
			return
		}
		ep.completeCall(m.From, &rm, m.Payload)
	case kindRequest, kindOneway:
		var rq requestMsg
		if err := wire.UnmarshalFrom(m.Payload, &rq); err != nil {
			ep.counts.Inc("rpc_bad_request")
			wire.PutBuf(m.Payload)
			return
		}
		h := ep.handler(rq.Proc)
		ctx := &Ctx{ep: ep, From: m.From, Origin: rq.Origin, CallID: rq.CallID, Trace: rq.Trace, Idem: rq.Idem, Body: rq.Body}
		if h == nil {
			ep.counts.Inc("rpc_unknown_proc")
			ctx.Reply(nil, fmt.Errorf("rpc: node %d has no handler for proc %d", ep.Self(), rq.Proc))
			wire.PutBuf(m.Payload)
			return
		}
		if rq.Idem != 0 {
			switch verdict, body, errStr := ep.dedup.admit(rq.Origin, rq.Idem); verdict {
			case dedupReplay:
				// A retry of a call that already executed here: replay the
				// recorded outcome without re-running the handler.
				ep.counts.Inc("rpc_dedup_hits")
				if trace.GlobalOn() {
					trace.GlobalEmit(trace.Event{Kind: trace.KDedupHit,
						Node: int32(ep.Self()), Arg: int64(rq.Origin)})
				}
				rm := replyMsg{CallID: rq.CallID, Body: body, Err: errStr}
				ep.sendReply(rq.Origin, &rm)
				wire.PutBuf(m.Payload)
				return
			case dedupInflight:
				// A retry racing the original execution: drop it. The origin
				// keeps the same token, so a later retry replays the outcome
				// once the first execution completes.
				ep.counts.Inc("rpc_dedup_inflight_drops")
				wire.PutBuf(m.Payload)
				return
			}
		}
		ep.counts.Inc("rpc_handled")
		payload := m.Payload
		ep.Dispatch(func() {
			h(ctx)
			wire.PutBuf(payload)
		})
	case kindPing:
		ep.handlePing(m)
	case kindPong:
		ep.handlePong(m)
	default:
		ep.counts.Inc("rpc_bad_kind")
		wire.PutBuf(m.Payload)
	}
}

// completeCall delivers a decoded reply to its pending call. payload is the
// reply's whole buffer, which rm.Body points into; completeCall owns it. A
// successful outcome hands the caller the body moved to the front of
// payload, so the caller's one PutBuf returns the whole buffer — returning
// the sub-slice instead would lose the envelope header's bytes from the
// buffer's capacity on every round trip.
func (ep *Endpoint) completeCall(from gaddr.NodeID, rm *replyMsg, payload []byte) {
	ep.mu.Lock()
	pc, ok := ep.pending[rm.CallID]
	if ok {
		delete(ep.pending, rm.CallID)
		if pc.fn != nil {
			ep.inflight[pc.peer]--
		}
	}
	ep.mu.Unlock()
	if !ok {
		wire.PutBuf(payload)
		ep.counts.Inc("rpc_orphan_reply")
		return
	}
	var out replyOutcome
	if rm.Err != "" {
		wire.PutBuf(payload)
		out.err = &RemoteError{Node: from, Msg: rm.Err}
	} else {
		out.body = payload[:copy(payload, rm.Body)]
	}
	if pc.fn != nil {
		// Async completion: cancel the deadline first. Stop may lose the race
		// with the timer's own fire, but asyncExpire claims the pending entry
		// under ep.mu before acting, so exactly one side delivers the outcome.
		if pc.timer != nil {
			pc.timer.Stop()
		}
		pc.fn(out)
		return
	}
	pc.ch <- out
}
