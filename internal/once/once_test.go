package once

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"slice/internal/netsim"
	"slice/internal/xdr"
)

// t0 is a Unix time half a second past a whole second, in nanoseconds:
// rounding it up and rounding it down land half a second apart.
var t0 = time.Unix(1_700_000_000, 500_000_000).UnixNano()

// TestTableKeepsOneSpan: an outcome is found under its call's identity
// for once.Span after it was recorded, and not under a different call
// sharing its {source, xid}; one recorded a Span ago is not taken in; a
// re-recorded identity keeps its newer outcome; and Each hands out Len
// outcomes, each of which encodes and decodes to itself.
func TestTableKeepsOneSpan(t *testing.T) {
	if Span < 1700*time.Millisecond || Span > 1710*time.Millisecond {
		t.Fatalf("Span is %v, want the default ladder 50+100+200+400+800 ms plus 10 %% jitter", Span)
	}
	var tab Table
	id := Ident{Src: netsim.Addr{Host: 1, Port: 700}, Xid: 9, Prog: 100003, Vers: 3, Proc: 8, Len: 60}
	if _, err := tab.Record(id, Outcome{Status: 0, Value: 42}, t0); err != nil {
		t.Fatal(err)
	}
	if o, ok := tab.Find(id, t0+int64(Span)-int64(time.Millisecond)); !ok || o.Value != 42 {
		t.Fatalf("Find a Span less a millisecond later = %+v, %v: want the recorded outcome", o, ok)
	}
	if _, ok := tab.Find(id, t0+int64(Span)+int64(time.Millisecond)); ok {
		t.Fatal("an outcome was found more than a Span after it was recorded")
	}
	other := id
	other.Proc = 12
	if _, ok := tab.Find(other, t0); ok {
		t.Fatal("a different call under the same {source, xid} found the outcome")
	}
	if _, ok := tab.Find(id.Sub(3), t0); ok {
		t.Fatal("a step of the call found the call's own outcome")
	}
	tab.Put(Done{Ident: id.Sub(1), Outcome: Outcome{Value: 1}, At: t0 - int64(Span)}, t0)
	if _, ok := tab.Find(id.Sub(1), t0); ok || tab.Len() != 1 {
		t.Fatalf("an outcome recorded a Span ago was taken in (%d held)", tab.Len())
	}
	if _, err := tab.Record(id, Outcome{Value: 43}, t0); err != nil {
		t.Fatal(err)
	}
	if o, _ := tab.Find(id, t0); o.Value != 43 || tab.Len() != 1 {
		t.Fatalf("re-recorded: %+v, %d held; want the newer outcome, once", o, tab.Len())
	}
	if _, err := tab.Record(id.Sub(2), Outcome{Status: 17}, t0); err != nil {
		t.Fatal(err)
	}
	n := 0
	tab.Each(func(d *Done) {
		n++
		for _, valued := range []bool{false, true} {
			e := xdr.NewEncoder(DoneSize + ValueSize)
			var err error
			if valued {
				err = d.EncodeValued(e)
			} else {
				err = d.Encode(e)
			}
			want := DoneSize
			if valued || d.Value != 0 {
				want += ValueSize
			}
			if err != nil || e.Len() != want {
				t.Fatalf("%+v encodes to %d bytes (%v), want %d", *d, e.Len(), err, want)
			}
			back, err := DecodeDone(xdr.NewDecoder(e.Bytes()), 100003, 3)
			expect := *d
			expect.Prog, expect.Vers = 100003, 3
			expect.At = ceilSecond(d.At) * int64(time.Second)
			if err != nil || back != expect {
				t.Fatalf("%+v decodes to %+v, %v; want %+v", *d, back, err, expect)
			}
		}
	})
	if n != tab.Len() || n != 2 || tab.Peak() != 2 {
		t.Fatalf("Each handed out %d outcomes, Len %d, Peak %d; want 2", n, tab.Len(), tab.Peak())
	}
}

// TestOutcomeGoldenBytes: a Done journals as 24 bytes, or 32 with its value,
// in the layout once.go documents, with the largest step, procedure,
// argument length and status that fit and the time rounded up to the
// second; one field past its width is refused, never truncated.
func TestOutcomeGoldenBytes(t *testing.T) {
	d := Done{
		Ident: Ident{Src: netsim.Addr{Host: 0x0a000001, Port: 0x0801}, Xid: 0xdeadbeef, Step: maxStep,
			Prog: 100003, Vers: 3, Proc: maxProc, Len: maxLen},
		Outcome: Outcome{Status: maxStatus},
		At:      t0,
	}
	bare := []byte{
		0x0a, 0x00, 0x00, 0x01, // source host
		0x08, 0x01, // source port
		0xff, 0xff, // step
		0xde, 0xad, 0xbe, 0xef, // xid
		0xff, 0xff, 0xff, 0xff, // procedure, argument length
		0xff, 0xff, // status
		0x00, 0x00, // flags, zero
		0x65, 0x53, 0xf1, 0x01, // 1 700 000 001: the second after t0
	}
	valued := append(append([]byte{}, bare...), 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08)
	valued[18] = flagValue
	for _, c := range []struct {
		value uint64
		want  []byte
	}{{0, bare}, {0x0102030405060708, valued}} {
		d.Value = c.value
		e := xdr.NewEncoder(DoneSize + ValueSize)
		if err := d.Encode(e); err != nil || !bytes.Equal(e.Bytes(), c.want) {
			t.Fatalf("value %#x encodes to\n% x (%v), want\n% x", c.value, e.Bytes(), err, c.want)
		}
		back, err := DecodeDone(xdr.NewDecoder(c.want), 100003, 3)
		want := d
		want.At = (t0/int64(time.Second) + 1) * int64(time.Second)
		if err != nil || back != want {
			t.Fatalf("% x decodes to %+v, %v; want %+v", c.want, back, err, want)
		}
	}
	d.Value = 0
	e := xdr.NewEncoder(DoneSize + ValueSize)
	if err := d.EncodeValued(e); err != nil || e.Len() != DoneSize+ValueSize || e.Bytes()[18] != flagValue {
		t.Fatalf("EncodeValued of a zero value: % x, %v; want the value present", e.Bytes(), err)
	}
	for name, over := range map[string]func(*Done){
		"step":   func(d *Done) { d.Step = maxStep + 1 },
		"proc":   func(d *Done) { d.Proc = maxProc + 1 },
		"len":    func(d *Done) { d.Len = maxLen + 1 },
		"status": func(d *Done) { d.Status = maxStatus + 1 },
		"time":   func(d *Done) { d.At = (1 << 32) * int64(time.Second) },
	} {
		bad := d
		over(&bad)
		e := xdr.NewEncoder(DoneSize)
		if err := bad.Encode(e); !errors.Is(err, ErrDoesNotFit) || e.Len() != 0 {
			t.Errorf("a %s too large: Encode wrote %d bytes, %v; want ErrDoesNotFit and nothing", name, e.Len(), err)
		}
		var tab Table
		if _, err := tab.Record(bad.Ident, bad.Outcome, bad.At); !errors.Is(err, ErrDoesNotFit) || tab.Len() != 0 {
			t.Errorf("a %s too large: Record %v, %d held; want ErrDoesNotFit and nothing", name, err, tab.Len())
		}
		if _, ok := tab.Find(bad.Ident, bad.At); ok {
			t.Errorf("a %s too large was found", name)
		}
	}
	flags := append([]byte{}, bare...)
	flags[18] = 2
	if _, err := DecodeDone(xdr.NewDecoder(flags), 100003, 3); err == nil {
		t.Fatal("a Done with an unknown flag decoded")
	}
}

// TestOutcomeOutlivesARestartBySpan: an outcome journaled at t, replayed
// into a fresh table — a restart — at t + Span − 1 ms, is found then;
// replayed at t + Span + 1 s it is gone. The journal's time is rounded up
// to the second, so replay keeps an outcome at least its Span, never
// less.
func TestOutcomeOutlivesARestartBySpan(t *testing.T) {
	var before Table
	id := Ident{Src: netsim.Addr{Host: 3, Port: 900}, Xid: 77, Prog: 100003, Vers: 3, Proc: 8, Len: 120}
	d, err := before.Record(id, Outcome{Value: 5}, t0)
	if err != nil {
		t.Fatal(err)
	}
	e := xdr.NewEncoder(DoneSize + ValueSize)
	if err := d.Encode(e); err != nil {
		t.Fatal(err)
	}
	restart := func(now int64) (Outcome, bool) {
		journaled, err := DecodeDone(xdr.NewDecoder(e.Bytes()), 100003, 3)
		if err != nil {
			t.Fatal(err)
		}
		var after Table
		after.Put(journaled, now)
		return after.Find(id, now)
	}
	if o, ok := restart(t0 + int64(Span) - int64(time.Millisecond)); !ok || o.Value != 5 {
		t.Fatalf("restarted a Span less a millisecond after the call: %+v, %v; want its outcome", o, ok)
	}
	if _, ok := restart(t0 + int64(Span) + int64(time.Second)); ok {
		t.Fatal("restarted a Span and a second after the call: its outcome is still found")
	}
}

// TestOutcomeTableRebasesPastItsRange: a table that runs for longer than its
// entries' milliseconds can count moves its base up in a sweep, and an
// outcome recorded after that is found for its Span as before.
func TestOutcomeTableRebasesPastItsRange(t *testing.T) {
	var tab Table
	id := Ident{Src: netsim.Addr{Host: 4, Port: 1}, Xid: 1, Proc: 1, Len: 8}
	if _, err := tab.Record(id, Outcome{Value: 1}, t0); err != nil {
		t.Fatal(err)
	}
	later := t0 + 40*24*int64(time.Hour) // past an int32's milliseconds
	if _, err := tab.Record(id.Sub(1), Outcome{Value: 2}, later); err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 1 {
		t.Fatalf("%d outcomes held after the sweep, want the one just recorded", tab.Len())
	}
	for _, dt := range []time.Duration{0, Span - time.Millisecond} {
		if o, ok := tab.Find(id.Sub(1), later+int64(dt)); !ok || o.Value != 2 {
			t.Fatalf("%v after a record past the table's range: %+v, %v; want its outcome", dt, o, ok)
		}
	}
	if _, ok := tab.Find(id.Sub(1), later+int64(Span+time.Millisecond)); ok {
		t.Fatal("an outcome recorded past the table's range was found more than a Span later")
	}
}
