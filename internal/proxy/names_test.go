package proxy_test

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"slice/internal/ensemble"
	"slice/internal/fhandle"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/oncrpc"
	"slice/internal/route"
)

// TestRetransmissionRoutedByItsOwnNames: the µproxy's pending record keeps
// no copy of a call's names — they alias the datagram it forwards — so a
// retransmission is routed by the names it carries itself. Under name
// hashing a CREATE whose reply is lost is retransmitted to the same
// directory server, which answers from its duplicate-request cache: the
// CREATE runs once. Routed by an empty name instead, the retransmission
// would reach another site and create the entry there a second time.
func TestRetransmissionRoutedByItsOwnNames(t *testing.T) {
	e := newEnsemble(t, func(cfg *ensemble.Config) {
		cfg.DirServers = 4
		cfg.NameKind = route.NameHashing
		cfg.ClientRPC = oncrpc.ClientConfig{Timeout: 20 * time.Millisecond, Retries: 6}
	})
	// Once armed, the tap learns the CREATE's xid from the client's call
	// and drops the first reply to it from a directory server: under name
	// hashing the CREATE may make a peer call to the root's site first,
	// whose reply is not the one to lose.
	var armed atomic.Bool
	var dropped atomic.Int32
	var create atomic.Uint64 // 1<<32 | the CREATE's xid, once seen
	tapAhead(t, e, func(d []byte) netsim.Verdict {
		h, err := netsim.ParseHeader(d)
		if err != nil || !armed.Load() {
			return netsim.Pass
		}
		payload := netsim.Payload(d)
		switch binary.BigEndian.Uint32(payload[oncrpc.OffMsgType:]) {
		case oncrpc.MsgCall:
			if call, err := oncrpc.ParseCall(payload); err == nil && h.Dst == e.Virtual &&
				call.Program == nfsproto.Program && nfsproto.Proc(call.Proc) == nfsproto.ProcCreate {
				create.CompareAndSwap(0, 1<<32|uint64(call.Xid))
			}
		case oncrpc.MsgReply:
			xid := binary.BigEndian.Uint32(payload[oncrpc.OffXid:])
			if h.Src.Host >= ensemble.HostDir0 && h.Src.Host < ensemble.HostDir0+4 &&
				create.Load() == 1<<32|uint64(xid) && armed.CompareAndSwap(true, false) {
				dropped.Add(1)
				return netsim.Drop
			}
		}
		return netsim.Pass
	})
	c, err := e.NewSerialClient()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dir := c.Root()
	// A name whose site differs from the empty name's, so that routing
	// the retransmission by a forgotten name would go elsewhere.
	site := func(name string) uint32 { return e.DirTable.Site(fhandle.NameKey(dir, name)) }
	name := ""
	for i := 0; name == ""; i++ {
		if n := fmt.Sprintf("retx%d", i); site(n) != site("") {
			name = n
		}
	}
	ops := func() (n uint64) {
		for _, s := range e.Dirs {
			n += s.Counters().Ops
		}
		return n
	}
	before := ops()
	armed.Store(true)
	if _, _, err := c.Create(dir, name, 0o644, true); err != nil {
		t.Fatalf("create with its first reply lost: %v", err)
	}
	if dropped.Load() != 1 || c.Retransmissions() == 0 {
		t.Fatalf("%d replies dropped, %d retransmissions: the scenario did not happen", dropped.Load(), c.Retransmissions())
	}
	if got := ops() - before; got != 1 {
		t.Fatalf("the CREATE ran %d times across the directory servers, want once", got)
	}
	if _, _, err := c.Lookup(dir, name); err != nil {
		t.Fatalf("lookup after the retransmitted create: %v", err)
	}
}
