package oncrpc

import (
	"testing"
	"time"

	"slice/internal/netsim"
	"slice/internal/obs"
	"slice/internal/xdr"
)

// TestReplyHeaderCarriesServerTime: an observed server writes its time for
// a call into the reply header — here at least the millisecond its handler
// sleeps, and what its observer saw — and an unobserved server writes 0.
// Either way the result follows the header untouched.
func TestReplyHeaderCarriesServerTime(t *testing.T) {
	sleepy := HandlerFunc(func(call Call, from netsim.Addr) (func(*xdr.Encoder), uint32) {
		time.Sleep(time.Millisecond)
		return func(e *xdr.Encoder) { e.PutUint32(77) }, AcceptSuccess
	})
	for _, observed := range []bool{true, false} {
		cli, srv := newPair(t, netsim.Config{}, sleepy, ClientConfig{Timeout: time.Second})
		seen := make(chan uint64, 1)
		if observed {
			srv.SetObserver(func(_ obs.CallID, prog, proc uint32, t0, t1 int64) { seen <- uint64(t1 - t0) })
		}
		rep, err := cli.CallTo(srv.Addr(), 7, 1, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		if v, err := xdr.NewDecoder(rep.Body).Uint32(); err != nil || v != 77 || len(rep.Body) != 4 {
			t.Fatalf("observed=%v: result %d (%d bytes), %v", observed, v, len(rep.Body), err)
		}
		switch {
		case !observed && rep.ServerNS != 0:
			t.Fatalf("unobserved server sent server time %d, want 0", rep.ServerNS)
		case observed && rep.ServerNS < uint64(time.Millisecond):
			t.Fatalf("server time %d, want >= 1ms", rep.ServerNS)
		case observed && rep.ServerNS != <-seen:
			t.Fatal("the reply header and the observer disagree on the server time")
		}
	}
}
