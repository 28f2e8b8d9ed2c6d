package main

import (
	"sync"
	"testing"

	"amber/internal/gaddr"
	"amber/internal/transport"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{10000, 99}, {1000, 99}, {999, 98}, {500, 98}, {100, 90}, {20, 50}, {11, 9}, {10, 100}, {1, 100},
	} {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
		if got < 100 && c.n-rank(c.n, float64(got)) < 10 {
			t.Errorf("n=%d: p%d leaves %d samples beyond it", c.n, got, c.n-rank(c.n, float64(got)))
		}
		if got < 99 && c.n-rank(c.n, float64(got+1)) >= 10 {
			t.Errorf("n=%d: p%d is not the highest percentile with ten beyond", c.n, got)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1..1000, reversed
	}
	d := summarize(xs)
	if d.n != 1000 || d.p50 != 500 || d.tailP != 99 || d.tail != 990 {
		t.Fatalf("summarize(1..1000) = %+v, want p50 500, p99 990", d)
	}
	d = summarize([]float64{3, 1, 2})
	if d.tailP != 100 || d.tail != 3 || d.p50 != 2 {
		t.Fatalf("summarize of three samples = %+v, want the max as tail", d)
	}
}

// TestLinkFIFOMatchesConcurrentSenders sends from several goroutines on one
// link through a fake in-order transport; every delivery must match its own
// send, whatever order the senders raced in.
func TestLinkFIFOMatchesConcurrentSenders(t *testing.T) {
	var links linkTable
	wireQ := make(chan frame, 4096) // the fake transport's in-order stream
	var clock struct {
		sync.Mutex
		t int64
	}
	now := func() int64 {
		clock.Lock()
		defer clock.Unlock()
		clock.t++
		return clock.t
	}
	const senders, each = 4, 500
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				f := frame{kind: transport.Kind(1 + i%5), size: s*each + i, op: uint64(s*each + i)}
				err := links.send(0, 1, f, now, func() error {
					wireQ <- f
					return nil
				})
				if err != nil {
					t.Error(err)
				}
			}
		}(s)
	}
	wg.Wait()
	close(wireQ)
	n := 0
	for f := range wireQ {
		got, ok := links.deliver(0, 1, f.kind, f.size)
		if !ok || got.op != f.op {
			t.Fatalf("delivery %d: matched %+v (ok=%v), sent %+v", n, got, ok, f)
		}
		n++
	}
	if n != senders*each {
		t.Fatalf("delivered %d of %d", n, senders*each)
	}
	if _, ok := links.deliver(0, 1, 1, 0); ok {
		t.Fatal("delivery on a drained link matched")
	}
}

func TestLinkFIFODetectsMismatchAndFailedSend(t *testing.T) {
	var links linkTable
	now := func() int64 { return 1 }
	var a, b gaddr.NodeID = 2, 3
	if err := links.send(a, b, frame{kind: 1, size: 10}, now, func() error { return transport.ErrClosed }); err == nil {
		t.Fatal("failed send reported success")
	}
	if err := links.send(a, b, frame{kind: 2, size: 20}, now, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	// The failed frame must be gone; the next delivery is the reply frame.
	if f, ok := links.deliver(a, b, 2, 20); !ok || f.size != 20 {
		t.Fatalf("deliver = %+v, %v; want the frame that was sent", f, ok)
	}
	if err := links.send(a, b, frame{kind: 1, size: 5}, now, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if _, ok := links.deliver(a, b, 1, 6); ok {
		t.Fatal("a delivery of a different size matched the queue head")
	}
	// Links are per direction.
	if _, ok := links.deliver(b, a, 1, 5); ok {
		t.Fatal("the reverse link matched a frame sent forward")
	}
}

func TestParseCall(t *testing.T) {
	// fast-codec tag, call ID 300, origin node 4
	req := []byte{1, 0xac, 0x02, 0x08, 9}
	k, ok := parseCall(7, kRequest, req)
	if !ok || k != (callKey{origin: 4, id: 300}) {
		t.Fatalf("request key = %+v, %v", k, ok)
	}
	k, ok = parseCall(4, kReply, req[:3])
	if !ok || k != (callKey{origin: 4, id: 300}) {
		t.Fatalf("reply key = %+v, %v", k, ok)
	}
	if _, ok := parseCall(4, kOneway, req); ok {
		t.Fatal("a oneway has no reply to match")
	}
}
