package main

import (
	"sync/atomic"

	"amber/internal/core"
)

// Operation ids travel as the first argument of every benchmark method. The
// high bits name the operation's class, so the traced run can group spans by
// class, and the low bits make each id, and so each encoded argument vector,
// unique.
const (
	clNull uint64 = iota + 1
	clEcho
	clReadImm
	clReadLease
	clWrite
	clChase1 // first reference after 1, 2 or 3 moves
	clChase2
	clChase3
	clSecond // second reference, expected to hit node 0's refreshed hint
	clMove
)

const classShift = 48

func opID(class, seq uint64) uint64 { return class<<classShift | seq }

func opClass(op uint64) uint64 { return op >> classShift }

// active is the traced run's recorder, or nil. Method bodies are called by
// the runtime, which hands them no benchmark state, so they find it here.
var active atomic.Pointer[recorder]

// execStart is the start time for a method body's span (0 when untraced).
func execStart() int64 {
	if r := active.Load(); r != nil {
		return r.now()
	}
	return 0
}

// traceExec records a method body span; deferred with execStart's value.
func traceExec(ctx *core.Ctx, op int64, start int64) {
	if r := active.Load(); r != nil {
		r.add(span{start: start, end: r.now(), op: uint64(op), name: spExec, node: ctx.NodeID()})
	}
}

// Echo is invoke-remote's target. Null is Table 1's null invocation carrying
// only the op id, which it returns so every call's result can be checked.
type Echo struct{}

func (*Echo) Null(ctx *core.Ctx, op int64) int64 {
	defer traceExec(ctx, op, execStart())
	return op
}

func (*Echo) Echo(ctx *core.Ctx, op int64, b []byte) []byte {
	defer traceExec(ctx, op, execStart())
	return b
}

// Const is the immutable object of cached-reads and replica-reads: after
// SetImmutable, reads are served by replicas.
type Const struct{ V int64 }

func (c *Const) Get(ctx *core.Ctx, op int64) int64 {
	defer traceExec(ctx, op, execStart())
	return c.V
}

// Counter is the mutable object of cached-reads and replica-reads: after
// SetCacheable, reads are served under reader leases and every Add fences
// them.
type Counter struct{ N int64 }

// AmberReadOnly classifies Get as a read for the coherence layer.
func (*Counter) AmberReadOnly() []string { return []string{"Get"} }

func (c *Counter) Get(ctx *core.Ctx, op int64) int64 {
	defer traceExec(ctx, op, execStart())
	return c.N
}

func (c *Counter) Add(ctx *core.Ctx, op, delta int64) int64 {
	defer traceExec(ctx, op, execStart())
	c.N += delta
	return c.N
}

// Rover is migrate-chase's object; Where reports the node that ran it. Its
// field gives every move some state to ship.
type Rover struct{ Laps int64 }

func (*Rover) Where(ctx *core.Ctx, op int64) int64 {
	defer traceExec(ctx, op, execStart())
	return int64(ctx.NodeID())
}

func newRegistry() (*core.Registry, error) {
	reg := core.NewRegistry()
	for _, v := range []any{&Echo{}, &Const{}, &Counter{}, &Rover{}} {
		if err := reg.Register(v); err != nil {
			return nil, err
		}
	}
	return reg, nil
}
