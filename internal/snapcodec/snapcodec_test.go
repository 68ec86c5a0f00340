package snapcodec

import (
	"errors"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	e := NewEncoder()
	e.U8(7)
	e.Bool(true)
	e.Bool(false)
	e.U32(0xdeadbeef)
	e.U64(1 << 60)
	e.I64(-42)
	e.Int(1234)
	e.String("kpromoted")
	e.Raw([]byte{1, 2, 3})
	e.String("")

	d := NewDecoder(e.Bytes())
	if got := d.U8(); got != 7 {
		t.Fatalf("U8 = %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("Bool round trip")
	}
	if got := d.U32(); got != 0xdeadbeef {
		t.Fatalf("U32 = %#x", got)
	}
	if got := d.U64(); got != 1<<60 {
		t.Fatalf("U64 = %d", got)
	}
	if got := d.I64(); got != -42 {
		t.Fatalf("I64 = %d", got)
	}
	if got := d.Int(); got != 1234 {
		t.Fatalf("Int = %d", got)
	}
	if got := d.String(); got != "kpromoted" {
		t.Fatalf("String = %q", got)
	}
	if got := d.Raw(); len(got) != 3 || got[2] != 3 {
		t.Fatalf("Raw = %v", got)
	}
	if got := d.String(); got != "" {
		t.Fatalf("empty String = %q", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestDeterministic(t *testing.T) {
	enc := func() []byte {
		e := NewEncoder()
		e.U64(99)
		e.String("x")
		return e.Bytes()
	}
	a, b := enc(), enc()
	if string(a) != string(b) {
		t.Fatal("equal state encoded to different bytes")
	}
}

func TestTruncation(t *testing.T) {
	e := NewEncoder()
	e.U64(5)
	e.String("hello")
	full := e.Bytes()
	for cut := 0; cut < len(full); cut++ {
		d := NewDecoder(full[:cut])
		d.U64()
		_ = d.String()
		if err := d.Finish(); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut=%d: Finish = %v, want ErrTruncated", cut, err)
		}
		// Sticky: reads after the error stay zero and do not panic.
		if d.U64() != 0 || d.String() != "" {
			t.Fatalf("cut=%d: reads after error not zero", cut)
		}
	}
}

func TestTrailingBytes(t *testing.T) {
	e := NewEncoder()
	e.U8(1)
	e.U8(2)
	d := NewDecoder(e.Bytes())
	d.U8()
	if err := d.Finish(); err == nil {
		t.Fatal("Finish accepted trailing bytes")
	}
}

func TestInvalidBool(t *testing.T) {
	d := NewDecoder([]byte{9})
	d.Bool()
	if d.Err() == nil {
		t.Fatal("Bool accepted byte 9")
	}
}

// TestRawAliasesInput: Raw returns a view of the decoder's input, not a copy.
func TestRawAliasesInput(t *testing.T) {
	e := NewEncoder()
	e.Raw([]byte{1, 2, 3})
	b := e.Bytes()
	got := NewDecoder(b).Raw()
	b[len(b)-1] = 9
	if got[2] != 9 {
		t.Fatal("Raw copied its payload; it must alias the input")
	}
}

// TestGrowAndReset: Grow reserves room so the encodes it covers never
// reallocate, and Reset reuses the buffer.
func TestGrowAndReset(t *testing.T) {
	e := NewEncoder()
	e.U8(1)
	e.Grow(64)
	base := &e.Bytes()[0]
	for i := 0; i < 8; i++ {
		e.U64(uint64(i))
	}
	if e.Len() != 65 || &e.Bytes()[0] != base {
		t.Fatalf("encodes within Grow(64) reallocated (len %d)", e.Len())
	}
	e.Reset()
	e.U32(7)
	if e.Len() != 4 || &e.Bytes()[0] != base {
		t.Fatal("Reset did not reuse the buffer")
	}
}
