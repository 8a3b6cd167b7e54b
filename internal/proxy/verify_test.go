package proxy_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"testing"

	"slice/internal/client"
	"slice/internal/ensemble"
	"slice/internal/fhandle"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/oncrpc"
)

// The µproxy forwards READ and WRITE requests and patches READ replies in
// place without verifying them; the datagram's receiver does, at Recv.
// These tests corrupt traffic on the fabric ahead of the µproxy and check
// that nothing it edits launders the corruption and nothing it records
// from corrupt bytes outlives the retransmission that corrects them.

// tapAhead registers tap in front of µproxy 0's own tap (taps run in
// registration order) by restarting the µproxy after it. Soft state is
// all a restart loses, and the ensemble has carried no traffic yet.
func tapAhead(t *testing.T, e *ensemble.Ensemble, tap netsim.TapFunc) {
	t.Helper()
	e.Net.AddTap(tap)
	if err := e.Chaos().Crash(ensemble.RoleProxy, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Chaos().Restart(ensemble.RoleProxy, 0, e.VirtualOf(0)); err != nil {
		t.Fatal(err)
	}
}

// flipper corrupts one datagram: the next one match accepts after it is
// armed, at byte index at, with the xor mask.
type flipper struct {
	armed atomic.Bool
	fired atomic.Int32
	match func(d []byte) bool
	at    func(d []byte) int
	mask  byte
}

func (f *flipper) handle(d []byte) netsim.Verdict {
	if f.match(d) && f.armed.CompareAndSwap(true, false) {
		d[f.at(d)] ^= f.mask
		f.fired.Add(1)
	}
	return netsim.Pass
}

// nfsCall reports whether d is an NFS call of proc to the virtual server.
func nfsCall(e *ensemble.Ensemble, proc nfsproto.Proc) func(d []byte) bool {
	return func(d []byte) bool {
		h, err := netsim.ParseHeader(d)
		if err != nil || h.Dst != e.Virtual {
			return false
		}
		call, err := oncrpc.ParseCall(netsim.Payload(d))
		return err == nil && call.Program == nfsproto.Program && nfsproto.Proc(call.Proc) == proc
	}
}

// Byte indexes, within a READ or WRITE call datagram, of the handle's
// FileID low byte and of the offset's bits 16–23: the handle comes first in
// the arguments, the 8-byte offset right after it.
const (
	callFileIDLow = netsim.HeaderSize + oncrpc.CallHeader + 11
	callOffset16  = netsim.HeaderSize + oncrpc.CallHeader + 32 + 5
)

// quiescent checks that a µproxy whose traffic has all been answered holds
// no pending record or dirty mark.
func quiescent(t *testing.T, e *ensemble.Ensemble) {
	t.Helper()
	pending := 0
	for _, s := range e.Proxy.ShardStats() {
		pending += s.Pending
	}
	if pending != 0 || e.Proxy.DirtyLen() != 0 {
		t.Fatalf("µproxy leaked soft state: %d pending records, %d dirty marks", pending, e.Proxy.DirtyLen())
	}
}

// TestCorruptFirstTransmissionCannotSteerRetransmission: a READ or WRITE
// whose first transmission is corrupted ahead of the µproxy — in the
// handle or the offset, the fields it routes and stamps a capability by —
// is forwarded unverified and dropped by every server's Recv, but leaves a
// pending record behind. The clean retransmission must not replay that
// record: it must reach the right nodes at the right offset with a
// capability for the right handle, the cached size must follow the write
// that happened, and the record's dirty mark must go with it.
func TestCorruptFirstTransmissionCannotSteerRetransmission(t *testing.T) {
	const unit = 32 << 10
	cases := []struct {
		name string
		k    int
		proc nfsproto.Proc
		at   int
		mask byte
	}{
		{"write/handle/k=1", 1, nfsproto.ProcWrite, callFileIDLow, 0x01},
		{"write/offset/k=1", 1, nfsproto.ProcWrite, callOffset16, 0x10},
		{"write/handle/k=2", 2, nfsproto.ProcWrite, callFileIDLow, 0x01},
		{"write/offset/k=2", 2, nfsproto.ProcWrite, callOffset16, 0x10},
		{"read/offset/k=2", 2, nfsproto.ProcRead, callOffset16, 0x10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnsemble(t, func(cfg *ensemble.Config) {
				cfg.SmallFileServers = 0
				cfg.DirServers = 1
				cfg.Replication = tc.k
				cfg.CapabilityKey = []byte("verify-at-the-edge")
			})
			f := &flipper{match: nfsCall(e, tc.proc), at: func([]byte) int { return tc.at }, mask: tc.mask}
			tapAhead(t, e, f.handle)
			c, err := e.NewSerialClient()
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			fh, _, err := c.Create(c.Root(), "steered", 0o644, true)
			if err != nil {
				t.Fatal(err)
			}
			want := pattern(3*unit, 1)
			if err := c.WriteFile(fh, want); err != nil {
				t.Fatal(err)
			}
			dropped := e.Net.Stats().Dropped
			f.armed.Store(true)
			if tc.proc == nfsproto.ProcWrite {
				over := pattern(unit, 2)
				copy(want[unit:], over)
				if _, err := c.Write(fh, unit, over, false); err != nil {
					t.Fatalf("write after a corrupt first transmission: %v", err)
				}
				if _, err := c.Commit(fh); err != nil {
					t.Fatal(err)
				}
			} else {
				got := make([]byte, unit)
				if n, _, err := c.Read(fh, unit, got); err != nil || n != unit || !bytes.Equal(got, want[unit:2*unit]) {
					t.Fatalf("read after a corrupt first transmission: %d bytes, %v, equal %v",
						n, err, bytes.Equal(got, want[unit:2*unit]))
				}
			}
			if f.fired.Load() != 1 {
				t.Fatalf("the tap corrupted %d transmissions, want 1", f.fired.Load())
			}
			if e.Net.Stats().Dropped == dropped {
				t.Fatal("no Recv dropped the corrupt transmission")
			}

			got := make([]byte, len(want))
			if n, _, err := c.Read(fh, 0, got); err != nil || n != len(want) {
				t.Fatalf("read back: %d bytes, %v", n, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("read back differs: the retransmission landed on the wrong node or offset")
			}
			if ok, size := e.Proxy.CachedAttr(fh); !ok || size != uint64(len(want)) {
				t.Fatalf("µproxy caches size %d (ok %v), want %d", size, ok, len(want))
			}
			quiescent(t, e)
		})
	}
}

// TestCorruptStorageReplies: a storage node's reply corrupted between the
// node and the µproxy is never laundered into a datagram that verifies.
// A READ reply is patched in place with differential edits only, so the
// corruption survives to the client, whose Recv drops it. A WRITE reply is
// re-encoded, so the µproxy verifies it first and drops it itself. Either
// way the client retransmits, and gets the right answer.
func TestCorruptStorageReplies(t *testing.T) {
	const (
		half      = 64 << 10
		statusLow = netsim.HeaderSize + oncrpc.ReplyHeader + 3 // a reply's NFS status, low byte
	)
	for _, tc := range []struct {
		name             string
		at               func(d []byte) int // the byte corrupted
		op               func(c *client.Client, fh fhandle.Handle, want []byte) error
		atClient, atProx uint64 // where the corrupt reply must be dropped
	}{
		{"read", func(d []byte) int { return len(d) / 2 }, func(c *client.Client, fh fhandle.Handle, want []byte) error {
			got := make([]byte, half)
			if n, _, err := c.Read(fh, half, got); err != nil || n != half || !bytes.Equal(got, want[half:]) {
				return fmt.Errorf("read returned %d bytes, %v, equal %v", n, err, bytes.Equal(got, want[half:]))
			}
			return nil
		}, 1, 0},
		{"write", func([]byte) int { return statusLow }, func(c *client.Client, fh fhandle.Handle, want []byte) error {
			copy(want[half:], pattern(half/2, 4))
			if _, err := c.Write(fh, half, want[half:half+half/2], false); err != nil {
				return err
			}
			got, err := c.ReadAll(fh)
			if err != nil || !bytes.Equal(got, want) {
				return fmt.Errorf("read back %d bytes, %v, equal %v", len(got), err, bytes.Equal(got, want))
			}
			return nil
		}, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnsemble(t, nil)
			f := &flipper{
				match: func(d []byte) bool {
					h, err := netsim.ParseHeader(d)
					return err == nil && h.Src.Host >= ensemble.HostStorage0 && h.Src.Host < ensemble.HostStorage0+4 &&
						binary.BigEndian.Uint32(netsim.Payload(d)[oncrpc.OffMsgType:]) == oncrpc.MsgReply
				},
				at:   tc.at,
				mask: 0x40,
			}
			tapAhead(t, e, f.handle)
			c, err := e.NewSerialClient()
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			fh, _, err := c.Create(c.Root(), "reply", 0o644, true)
			if err != nil {
				t.Fatal(err)
			}
			want := pattern(2*half, 3)
			if err := c.WriteFile(fh, want); err != nil {
				t.Fatal(err)
			}

			dropped, proxyDropped := e.Net.Stats().Dropped, e.Proxy.Stats().Dropped
			f.armed.Store(true)
			if err := tc.op(c, fh, want); err != nil {
				t.Fatalf("after a corrupt %s reply: %v", tc.name, err)
			}
			if f.fired.Load() != 1 {
				t.Fatalf("the tap corrupted %d replies, want 1", f.fired.Load())
			}
			if d := e.Net.Stats().Dropped - dropped; d != tc.atClient {
				t.Fatalf("Recv dropped %d datagrams, want %d", d, tc.atClient)
			}
			if d := e.Proxy.Stats().Dropped - proxyDropped; d != tc.atProx {
				t.Fatalf("µproxy dropped %d datagrams, want %d", d, tc.atProx)
			}
			quiescent(t, e)
		})
	}
}
