package core

import (
	"bytes"
	"testing"
	"time"

	"amber/internal/gaddr"
	"amber/internal/wire"
)

// ledgerObj is a counter that can also echo a payload.
type ledgerObj struct{ N int }

func (o *ledgerObj) Add(n int) int        { o.N += n; return o.N }
func (o *ledgerObj) Echo(p []byte) []byte { return p }

// TestBufLedgerBalancesOnRoutedCalls checks the buffer-ownership contract
// (DESIGN.md §6.2) on every routed-call shape: over a stretch of steady
// calls, every buffer taken from the wire pool goes back to it. The fabric
// hands the sender's buffer to the receiver, so one ledger covers both ends.
func TestBufLedgerBalancesOnRoutedCalls(t *testing.T) {
	cl := newTestCluster(t, 3, 2)
	if err := cl.Register(&ledgerObj{}); err != nil {
		t.Fatal(err)
	}
	ctx := cl.Node(0).Root()
	echo := make([]byte, 4096) // outgrows a fresh 1 KiB pool buffer
	for i := range echo {
		echo[i] = byte(i)
	}

	direct, _ := ctx.New(&ledgerObj{})
	if err := ctx.MoveTo(direct, 1); err != nil {
		t.Fatal(err)
	}
	chained, _ := ctx.New(&Counter{})
	if err := ctx.MoveTo(chained, 1); err != nil {
		t.Fatal(err)
	}
	// An object homed on node 1 and moved on to node 2: with its location
	// hint dropped, node 0 routes through the home node, which forwards.
	far, _ := cl.Node(1).Root().New(&Counter{})
	if err := cl.Node(1).Root().MoveTo(far, 2); err != nil {
		t.Fatal(err)
	}

	shapes := []struct {
		name string
		call func() error
	}{
		{"Invoke", func() error {
			if _, err := ctx.Invoke(direct, "Add", 1); err != nil {
				return err
			}
			out, err := ctx.Invoke(direct, "Echo", echo)
			if err == nil && len(out[0].([]byte)) != len(echo) {
				t.Errorf("echo returned %d bytes, want %d", len(out[0].([]byte)), len(echo))
			}
			return err
		}},
		{"AsyncInvoke", func() error {
			f1 := ctx.AsyncInvoke(direct, "Add", 1)
			f2 := ctx.AsyncInvoke(direct, "Echo", echo)
			if _, err := f1.Join(ctx); err != nil {
				return err
			}
			_, err := f2.Join(ctx)
			return err
		}},
		{"InvokeChain", func() error {
			_, err := ctx.InvokeChain([]ChainStep{
				{Obj: chained, Method: "Add", Args: []any{2}},
				{Obj: direct, Method: "Add", Args: []any{ChainPrev}},
			})
			return err
		}},
		{"ForwardedInvoke", func() error {
			cl.Node(0).hintDrop(far)
			_, err := ctx.Invoke(far, "Add", 1)
			return err
		}},
	}
	const warm, steady = 20, 200
	for _, s := range shapes {
		t.Run(s.name, func(t *testing.T) {
			for i := 0; i < warm; i++ {
				if err := s.call(); err != nil {
					t.Fatal(err)
				}
			}
			before := settledLedger(t)
			for i := 0; i < steady; i++ {
				if err := s.call(); err != nil {
					t.Fatal(err)
				}
			}
			// Oneway location updates and health probes may still be on the
			// fabric when the last call returns; give them a moment to land.
			deadline := time.Now().Add(2 * time.Second)
			for {
				after := wire.BufLedger()
				gets, puts := after.Gets-before.Gets, after.Puts-before.Puts
				if gets == puts {
					if gets == 0 {
						t.Fatal("ledger saw no buffer traffic")
					}
					return
				}
				if time.Now().After(deadline) {
					t.Fatalf("%d steady calls: %d buffers taken, %d returned (%d leaked)",
						steady, gets, puts, gets-puts)
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
	if fw := cl.Node(1).Stats().Value("forwards"); fw < warm+steady {
		t.Fatalf("home node forwarded %d calls, want every one of the %d", fw, warm+steady)
	}
}

// settledLedger waits for buffer traffic still in flight — the last warm-up
// call's location updates, or stragglers from earlier tests' clusters — to
// land, and returns the quiet ledger.
func settledLedger(t *testing.T) wire.BufStats {
	t.Helper()
	prev := wire.BufLedger()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
		cur := wire.BufLedger()
		if cur == prev {
			return cur
		}
		prev = cur
	}
	t.Fatal("buffer traffic never settled")
	return prev
}

// TestInPlaceEncodingIsByteIdentical pins the encode-side value vectors to
// the nested encoding they replace: a message whose argument, result or
// chain vectors are appended in place must put exactly the bytes on the wire
// that the separately marshalled vectors did.
func TestInPlaceEncodingIsByteIdentical(t *testing.T) {
	args := []any{7, "seven", make([]byte, 300), []float64{0.5}}
	marshal := func(v any) []byte {
		t.Helper()
		b, err := wire.MarshalInto(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	marshalArgs := func(v []any) []byte {
		t.Helper()
		b, err := wire.MarshalArgs(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	rec := ThreadRec{ID: 9, Home: 1, Pins: []gaddr.Addr{5}}

	for _, a := range [][]any{args, nil} {
		base := routedMsg{Op: opInvoke, Obj: 42, Thread: rec, Method: "Add",
			Chain: []gaddr.NodeID{0, 1}, SnapMax: 4096, Flags: rmFlagLeaseOK}
		nested, inPlace := base, base
		nested.Args = marshalArgs(a)
		inPlace.ArgVals = vals(a)
		if !bytes.Equal(marshal(&nested), marshal(&inPlace)) {
			t.Fatalf("routedMsg with %d args: in-place encoding differs", len(a))
		}

		var ir invokeReply
		if err := wire.UnmarshalFrom(marshal(&invokeReply{ResultVals: a, Node: 2, Epoch: 3}), &ir); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ir.Results, marshalArgs(a)) {
			t.Fatalf("invokeReply with %d results: in-place encoding differs", len(a))
		}
	}

	steps := []chainStepWire{
		{Obj: 1, Method: "Add", ArgVals: vals(args)},
		{Obj: 2, Method: "Get", ArgVals: vals(nil)},
	}
	nestedSteps := []chainStepWire{
		{Obj: 1, Method: "Add", Args: marshalArgs(args)},
		{Obj: 2, Method: "Get", Args: marshalArgs(nil)},
	}
	prev := []any{11}
	nested := routedMsg{Op: opChain, Obj: 1, Thread: rec,
		Args: marshal(&chainMsg{Steps: nestedSteps, PrevVals: prev})}
	inPlace := routedMsg{Op: opChain, Obj: 1, Thread: rec,
		chain: &chainMsg{Steps: steps, PrevVals: prev}}
	if !bytes.Equal(marshal(&nested), marshal(&inPlace)) {
		t.Fatal("opChain: in-place chain encoding differs")
	}
}
