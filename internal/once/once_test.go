package once

import (
	"testing"
	"time"

	"slice/internal/netsim"
	"slice/internal/xdr"
)

// TestOutcomesKeepOneSpan: an outcome is found under its call's identity
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
	tab.Record(id, Outcome{Status: 0, Value: 42})
	if o, ok := tab.Find(id); !ok || o.Value != 42 {
		t.Fatalf("Find = %+v, %v: want the recorded outcome", o, ok)
	}
	other := id
	other.Proc = 12
	if _, ok := tab.Find(other); ok {
		t.Fatal("a different call under the same {source, xid} found the outcome")
	}
	if _, ok := tab.Find(id.Sub(3)); ok {
		t.Fatal("a step of the call found the call's own outcome")
	}
	tab.Put(Done{Ident: id.Sub(1), Outcome: Outcome{Value: 1}, At: time.Now().Add(-Span).UnixNano()})
	if _, ok := tab.Find(id.Sub(1)); ok || tab.Len() != 1 {
		t.Fatalf("an outcome recorded a Span ago was taken in (%d held)", tab.Len())
	}
	tab.Record(id, Outcome{Value: 43})
	if o, _ := tab.Find(id); o.Value != 43 || tab.Len() != 1 {
		t.Fatalf("re-recorded: %+v, %d held; want the newer outcome, once", o, tab.Len())
	}
	tab.Record(id.Sub(2), Outcome{Status: 17})
	n := 0
	tab.Each(func(d *Done) {
		n++
		e := xdr.NewEncoder(DoneSize)
		d.Encode(e)
		if e.Len() != DoneSize {
			t.Fatalf("a Done encodes to %d bytes, want %d", e.Len(), DoneSize)
		}
		back, err := DecodeDone(xdr.NewDecoder(e.Bytes()))
		if err != nil || back != *d {
			t.Fatalf("%+v decodes to %+v, %v", *d, back, err)
		}
	})
	if n != tab.Len() || n != 2 || tab.Peak() != 2 {
		t.Fatalf("Each handed out %d outcomes, Len %d, Peak %d; want 2", n, tab.Len(), tab.Peak())
	}
}
