package wire

import (
	"bytes"
	"errors"
	"testing"
)

// TestAppendPrefixedMatchesAppendBytes pins the in-place encoding to the
// nested one byte for byte, across every length-prefix width change.
func TestAppendPrefixedMatchesAppendBytes(t *testing.T) {
	for _, n := range []int{0, 1, 126, 127, 128, 129, 1000, 16383, 16384, 16385, 1 << 21} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i*7 + 3)
		}
		head := []byte("head")
		want := AppendBytes(append([]byte(nil), head...), payload)
		got, err := AppendPrefixed(append([]byte(nil), head...), func(b []byte) ([]byte, error) {
			return append(b, payload...), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d: in-place encoding differs from AppendBytes", n)
		}
	}

	args := []any{1, "two", []byte("three"), make([]byte, 300), []float64{4.5}}
	sep, err := MarshalArgs(args)
	if err != nil {
		t.Fatal(err)
	}
	got, err := AppendArgsPrefixed([]byte{0xAA}, args)
	if err != nil {
		t.Fatal(err)
	}
	if want := AppendBytes([]byte{0xAA}, sep); !bytes.Equal(got, want) {
		t.Fatal("AppendArgsPrefixed differs from AppendBytes of MarshalArgs")
	}

	boom := errors.New("boom")
	if _, err := AppendPrefixed(nil, func(b []byte) ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("encoder error not passed up: %v", err)
	}
}

// fallibleMsg carries a user value, like routedMsg's encode-side ArgVals.
type fallibleMsg struct{ V any }

func (m *fallibleMsg) AppendWireErr(b []byte) ([]byte, error) { return AppendValue(b, m.V) }

func (m *fallibleMsg) DecodeWire(b []byte) ([]byte, error) {
	v, rest, err := DecodeValue(b)
	m.V = v
	return rest, err
}

func TestMarshalIntoFallibleCodec(t *testing.T) {
	b, err := MarshalInto(&fallibleMsg{V: "hello"})
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != fmtFast {
		t.Fatalf("format tag %#x, want fmtFast", b[0])
	}
	var out fallibleMsg
	if err := UnmarshalFrom(b, &out); err != nil || out.V != "hello" {
		t.Fatalf("round trip: %v, %v", out.V, err)
	}
	PutBuf(b)

	// A failed encoding hands its buffer back to the pool itself.
	type neverRegistered struct{ X int }
	before := BufLedger()
	if _, err := MarshalInto(&fallibleMsg{V: neverRegistered{1}}); err == nil {
		t.Fatal("unregistered value should fail to encode")
	}
	after := BufLedger()
	if gets, puts := after.Gets-before.Gets, after.Puts-before.Puts; gets != 1 || puts != 1 {
		t.Fatalf("failed encode: %d gets, %d puts; want 1 and 1", gets, puts)
	}
}

func TestBufLedgerCounts(t *testing.T) {
	before := BufLedger()
	small := GetBuf()
	big := GetBufN(maxPooledCap + 1)
	PutBuf(small)
	PutBuf(big)
	PutBuf(nil) // not a buffer: not counted
	after := BufLedger()
	if d := after.Gets - before.Gets; d != 2 {
		t.Fatalf("gets +%d, want +2", d)
	}
	if d := after.Puts - before.Puts; d != 2 {
		t.Fatalf("puts +%d, want +2", d)
	}
	if d := after.Oversize - before.Oversize; d != 1 {
		t.Fatalf("oversize +%d, want +1", d)
	}
}

// TestPoolAllocationFree: with the boxes recycled, a warm Get/Put pair
// allocates nothing.
func TestPoolAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	PutBuf(GetBuf())
	if n := testing.AllocsPerRun(1000, func() {
		b := GetBuf()
		b = append(b, "payload"...)
		PutBuf(b)
	}); n != 0 {
		t.Fatalf("GetBuf+PutBuf: %v allocs per pair, want 0", n)
	}
}

func TestPoisonOnPut(t *testing.T) {
	prev := poisonPuts
	SetPoisonPuts(true)
	defer SetPoisonPuts(prev)
	b := append(GetBuf(), "live data"...)
	alias := b[:4]
	PutBuf(b)
	for i, c := range alias[:cap(alias)] {
		if c != poisonByte {
			t.Fatalf("byte %d = %#x after PutBuf, want poison %#x", i, c, poisonByte)
		}
	}
}
