package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"sync"
	"time"

	"amber/internal/gaddr"
	"amber/internal/transport"
	"amber/internal/wire"
)

// Transport kinds as the rpc layer numbers them. The traced run reads them
// off the wire from outside the rpc package, so they are restated here.
const (
	kRequest transport.Kind = 1
	kReply   transport.Kind = 2
	kOneway  transport.Kind = 3
	kPing    transport.Kind = 4
	kPong    transport.Kind = 5
)

var kindNames = [...]string{kRequest: "request", kReply: "reply", kOneway: "oneway", kPing: "ping", kPong: "pong"}

// spanName identifies the boundary a span was recorded at. Every span is
// recorded from this package: around calls into core, around each node's
// Transport, and around the benchmark's own method bodies.
type spanName uint8

const (
	spInvoke  spanName = iota + 1 // Ctx.Invoke, or AsyncInvoke entry → future completion
	spIssue                       // time inside Ctx.AsyncInvoke
	spMove                        // Ctx.MoveTo
	spExec                        // a benchmark method body
	spSend                        // Transport.Send / SendNoFlush
	spTransit                     // Send entry → handler entry on the receiver (per-link FIFO)
	spHandler                     // the receiver's handler holding the delivery goroutine
)

var spanNames = [...]string{spInvoke: "core.invoke", spIssue: "core.async_issue", spMove: "core.move",
	spExec: "core.exec", spSend: "transport.send", spTransit: "transport.transit", spHandler: "transport.handler"}

// spanParent is the span each kind nests under; transport spans belong to
// the invocation whose request or reply they carry.
var spanParent = [...]spanName{spExec: spInvoke, spSend: spInvoke, spTransit: spInvoke, spHandler: spInvoke}

// span is one recorded interval. Times are nanoseconds since the recorder's
// epoch; every node lives in this process, so they share one clock.
type span struct {
	start, end int64
	op         uint64 // 0 when the span belongs to no benchmark operation
	name       spanName
	kind       transport.Kind // transport spans only
	node       gaddr.NodeID   // node the span was recorded on
}

// maxSpans bounds the span store; beyond it spans are counted, not kept.
const maxSpans = 1 << 20

// callKey names one rpc call cluster-wide: the origin node and its call ID.
type callKey struct {
	origin gaddr.NodeID
	id     uint64
}

// recorder is the traced run's span store and message ledger. Drivers are
// handed a nil *recorder when tracing is off.
type recorder struct {
	epoch time.Time
	links linkTable

	mu      sync.Mutex
	spans   []span
	dropped int64
	calls   map[callKey]uint64 // call → benchmark op (0: not one of ours)
	reqs    map[callKey]int    // request messages per call (forwarding adds more)
	replies map[callKey]int
	pending map[uint64][]byte // issued op → its argument-vector prefix, until its first request is seen
	msgs    [6]int64          // messages sent, by kind
	unfifo  int64             // deliveries that did not match the head of their link's queue
}

func newRecorder() *recorder {
	return &recorder{
		epoch:   time.Now(),
		spans:   make([]span, 0, 1<<16),
		calls:   make(map[callKey]uint64),
		reqs:    make(map[callKey]int),
		replies: make(map[callKey]int),
		pending: make(map[uint64][]byte),
	}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.addLocked(s)
	r.mu.Unlock()
}

func (r *recorder) addLocked(s span) {
	if len(r.spans) >= maxSpans {
		r.dropped++
		return
	}
	r.spans = append(r.spans, s)
}

// issue registers an operation about to be invoked with args. Its first
// request message is recognized by the encoded argument vector, which core
// embeds verbatim; the op id argument makes the prefix unique.
func (r *recorder) issue(op uint64, args ...any) {
	b, err := wire.MarshalArgs(args)
	if err != nil {
		return
	}
	if len(b) > 24 {
		b = b[:24]
	}
	prefix := append([]byte(nil), b...)
	wire.PutBuf(b)
	r.mu.Lock()
	r.pending[op] = prefix
	r.mu.Unlock()
}

// done retires an op that may have completed without sending anything.
func (r *recorder) done(op uint64) {
	r.mu.Lock()
	delete(r.pending, op)
	r.mu.Unlock()
}

// parseCall reads the call identity off an rpc request or reply payload:
// the fast-codec tag byte, the call ID, and (requests only) the origin.
func parseCall(to gaddr.NodeID, kind transport.Kind, p []byte) (callKey, bool) {
	if (kind != kRequest && kind != kReply) || len(p) < 2 {
		return callKey{}, false
	}
	id, rest, err := wire.ReadUvarint(p[1:])
	if err != nil || id == 0 {
		return callKey{}, false
	}
	if kind == kReply {
		return callKey{origin: to, id: id}, true
	}
	origin, _, err := wire.ReadVarint(rest)
	if err != nil {
		return callKey{}, false
	}
	return callKey{origin: gaddr.NodeID(origin), id: id}, true
}

// send records one outbound message around the real send. payload must not
// be touched after inner returns: a successful send takes ownership.
func (r *recorder) send(from, to gaddr.NodeID, kind transport.Kind, p []byte, inner func(gaddr.NodeID, transport.Kind, []byte) error) error {
	var op uint64
	key, isCall := parseCall(to, kind, p)
	r.mu.Lock()
	if isCall {
		op = r.calls[key]
		if kind == kRequest {
			if op == 0 {
				op = r.claimLocked(p)
				if op != 0 {
					r.calls[key] = op
				}
			}
			r.reqs[key]++
		} else {
			r.replies[key]++
		}
	}
	if int(kind) < len(r.msgs) {
		r.msgs[kind]++
	}
	r.mu.Unlock()

	var start, end int64
	err := r.links.send(from, to, frame{kind: kind, size: len(p), op: op}, r.now, func() error {
		start = r.now()
		err := inner(to, kind, p)
		end = r.now()
		return err
	})
	if err == nil {
		r.add(span{start: start, end: end, op: op, name: spSend, kind: kind, node: from})
	}
	return err
}

// claimLocked finds the pending op whose argument prefix the request carries.
func (r *recorder) claimLocked(p []byte) uint64 {
	for op, prefix := range r.pending {
		if bytes.Contains(p, prefix) {
			delete(r.pending, op)
			return op
		}
	}
	return 0
}

// deliver records one inbound message around the real handler.
func (r *recorder) deliver(self gaddr.NodeID, m transport.Message, h transport.Handler) {
	start := r.now()
	f, ok := r.links.deliver(m.From, self, m.Kind, len(m.Payload))
	h(m)
	end := r.now()
	r.mu.Lock()
	if !ok {
		r.unfifo++
	} else {
		r.addLocked(span{start: f.sentAt, end: start, op: f.op, name: spTransit, kind: m.Kind, node: self})
	}
	r.addLocked(span{start: start, end: end, op: f.op, name: spHandler, kind: m.Kind, node: self})
	r.mu.Unlock()
}

// sent returns how many messages of each kind have been sent so far.
func (r *recorder) sent() [6]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.msgs
}

// unmatched counts rpc calls whose requests went out but no reply did.
func (r *recorder) unmatched() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for k := range r.reqs {
		if r.replies[k] == 0 {
			n++
		}
	}
	return n
}

// dump writes every kept span as one tab-separated line.
func (r *recorder) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\tparent\top\tnode\tkind\tstart_ns\tend_ns")
	r.mu.Lock()
	for _, s := range r.spans {
		parent, kind := "-", "-"
		if int(s.name) < len(spanParent) && spanParent[s.name] != 0 {
			parent = spanNames[spanParent[s.name]]
		}
		if s.kind != 0 && int(s.kind) < len(kindNames) {
			kind = kindNames[s.kind]
		}
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%s\t%d\t%d\n", spanNames[s.name], parent, s.op, s.node, kind, s.start, s.end)
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// frame is what the sender side of a link remembers about one message, so
// the receiver can time its transit.
type frame struct {
	sentAt int64
	kind   transport.Kind
	size   int
	op     uint64
}

// linkTable matches deliveries to sends through the transport's documented
// per-(sender, receiver) FIFO order: the i-th message delivered on a link is
// the i-th one sent on it. Each delivery is checked against the queue head's
// kind and size, so a broken FIFO shows up as a mismatch, not a wrong time.
type linkTable struct {
	mu    sync.Mutex
	links map[[2]gaddr.NodeID]*link
}

type link struct {
	// send is held across queueing and the real send, so queue order is the
	// order the transport accepted the frames in. It is never held while
	// delivering, so a sender blocked on a full socket cannot stall the
	// receiver that would drain it.
	send sync.Mutex
	mu   sync.Mutex
	q    []frame
}

func (t *linkTable) get(from, to gaddr.NodeID) *link {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.links == nil {
		t.links = make(map[[2]gaddr.NodeID]*link)
	}
	l := t.links[[2]gaddr.NodeID{from, to}]
	if l == nil {
		l = &link{}
		t.links[[2]gaddr.NodeID{from, to}] = l
	}
	return l
}

// send queues f (stamped by now) and runs do, which performs the real send;
// a failed send takes its frame back out.
func (t *linkTable) send(from, to gaddr.NodeID, f frame, now func() int64, do func() error) error {
	l := t.get(from, to)
	l.send.Lock()
	defer l.send.Unlock()
	f.sentAt = now()
	l.mu.Lock()
	l.q = append(l.q, f)
	l.mu.Unlock()
	err := do()
	if err != nil {
		l.mu.Lock()
		l.q = l.q[:len(l.q)-1]
		l.mu.Unlock()
	}
	return err
}

// deliver pops the link's oldest frame; ok is false when the link is empty
// or the head does not match the delivered message.
func (t *linkTable) deliver(from, to gaddr.NodeID, kind transport.Kind, size int) (frame, bool) {
	l := t.get(from, to)
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.q) == 0 {
		return frame{}, false
	}
	f := l.q[0]
	l.q = l.q[1:]
	if len(l.q) == 0 {
		l.q = l.q[:0:0] // let the drained backing array go
	}
	return f, f.kind == kind && f.size == size
}

// tap wraps one node's TCP transport for the traced run. It forwards the
// Coalescer pair as well: the rpc layer type-asserts it, and dropping it
// would silently change the async send path being measured.
type tap struct {
	tr  *transport.TCP
	rec *recorder
}

func (t *tap) Self() gaddr.NodeID { return t.tr.Self() }

func (t *tap) Send(to gaddr.NodeID, kind transport.Kind, p []byte) error {
	return t.rec.send(t.tr.Self(), to, kind, p, t.tr.Send)
}

func (t *tap) SendNoFlush(to gaddr.NodeID, kind transport.Kind, p []byte) error {
	return t.rec.send(t.tr.Self(), to, kind, p, t.tr.SendNoFlush)
}

func (t *tap) Kick(to gaddr.NodeID) { t.tr.Kick(to) }

func (t *tap) SetHandler(h transport.Handler) {
	self := t.tr.Self()
	t.tr.SetHandler(func(m transport.Message) { t.rec.deliver(self, m, h) })
}

func (t *tap) Close() error { return t.tr.Close() }
