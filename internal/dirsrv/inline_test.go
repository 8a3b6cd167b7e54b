package dirsrv

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"slice/internal/fhandle"
	"slice/internal/netsim"
	"slice/internal/nfsproto"
	"slice/internal/oncrpc"
	"slice/internal/route"
)

// A directory server serves each call on the goroutine that delivers it,
// and a handler's peer call runs the peer's handler on the goroutine that
// delivers that call in turn: no server has a receiving goroutine to run
// out of. These tests drive the two-site operations — an orphan MKDIR
// under mkdir switching, a RENAME across sites under name hashing — where
// that delivery is a fabric delay timer and where the peer's reply is
// lost, each under a deadline far below any timeout that would hide a
// handler waiting on a call nobody serves.

// opDeadline bounds one test's operations: a few peer ladders (5
// attempts from 50 ms, 1.71 s at most) and no more.
const opDeadline = 10 * time.Second

// within runs ops on a goroutine of its own and fails the test unless it
// returns, without error, within opDeadline.
func within(t *testing.T, ops func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- ops() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(opDeadline):
		t.Fatalf("operations still running after %v", opDeadline)
	}
}

// crossSite sums the servers' cross-site operation counts.
func (h *harness) crossSite() uint64 {
	var n uint64
	for _, s := range h.servers {
		n += s.Counters().CrossSite
	}
	return n
}

// mkdirE and renameE are the harness's operations with errors returned,
// for use off the test's goroutine.
func (h *harness) mkdirE(dir fhandle.Handle, name string) (fhandle.Handle, error) {
	var res nfsproto.CreateRes
	if err := h.call(nfsproto.ProcMkdir, &nfsproto.CreateArgs{Dir: dir, Name: name}, &res); err != nil {
		return fhandle.Handle{}, fmt.Errorf("mkdir %s: %w", name, err)
	}
	if res.Status != nfsproto.OK {
		return fhandle.Handle{}, fmt.Errorf("mkdir %s: %v", name, res.Status)
	}
	return res.FH, nil
}

func (h *harness) renameE(from fhandle.Handle, fromName string, to fhandle.Handle, toName string) error {
	var res nfsproto.RenameRes
	if err := h.call(nfsproto.ProcRename, &nfsproto.RenameArgs{
		FromDir: from, FromName: fromName, ToDir: to, ToName: toName,
	}, &res); err != nil {
		return fmt.Errorf("rename %s → %s: %w", fromName, toName, err)
	}
	if res.Status != nfsproto.OK {
		return fmt.Errorf("rename %s → %s: %v", fromName, toName, res.Status)
	}
	if got, err := h.lookup(to, toName); err != nil || got.Status != nfsproto.OK {
		return fmt.Errorf("lookup %s after rename: %v %v", toName, got.Status, err)
	}
	return nil
}

// crossSiteMkdirs makes orphan directories under mkdir switching with
// P = 1 until one has landed off its parent's site, each a two-site
// operation when it does: the new directory's site installs the name
// entry at the parent's by a peer call.
func crossSiteMkdirs(h *harness, each func()) error {
	for i := 0; i < 16; i++ {
		each()
		fh, err := h.mkdirE(h.root, fmt.Sprintf("orphan%d", i))
		if err != nil {
			return err
		}
		if fh.Site%uint32(len(h.servers)) != h.root.Site%uint32(len(h.servers)) {
			if got, err := h.lookup(h.root, fmt.Sprintf("orphan%d", i)); err != nil || got.Status != nfsproto.OK || got.FH.Ident() != fh.Ident() {
				return fmt.Errorf("lookup of an orphan directory: %v %v", got.Status, err)
			}
			return nil
		}
	}
	return fmt.Errorf("16 mkdirs with P = 1 all landed on the parent's site")
}

// crossSiteRenames moves files between two directories under name
// hashing; with four sites most of the moves insert the new entry at a
// site other than the one serving the RENAME.
func crossSiteRenames(h *harness, each func()) error {
	var from, to fhandle.Handle
	var err error
	if from, err = h.mkdirE(h.root, "from"); err != nil {
		return err
	}
	if to, err = h.mkdirE(h.root, "to"); err != nil {
		return err
	}
	for i := 0; i < 8; i++ {
		var res nfsproto.CreateRes
		name := fmt.Sprintf("f%d", i)
		if err := h.call(nfsproto.ProcCreate, &nfsproto.CreateArgs{Dir: from, Name: name, Exclusive: true}, &res); err != nil || res.Status != nfsproto.OK {
			return fmt.Errorf("create %s: %v %v", name, res.Status, err)
		}
		each()
		if err := h.renameE(from, name, to, "moved-"+name); err != nil {
			return err
		}
	}
	return nil
}

// TestCrossSiteOpsUnderLatency: with fabric latency every delivery runs on
// a delay timer's goroutine, so a handler's peer call is served on one
// timer goroutine and its reply matched on another while the handler
// waits. Both two-site operations complete.
func TestCrossSiteOpsUnderLatency(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind route.NameKind
		p    float64
		ops  func(*harness, func()) error
	}{
		{"mkdir-switching", route.MkdirSwitching, 1, crossSiteMkdirs},
		{"name-hashing", route.NameHashing, 0, crossSiteRenames},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarnessOn(t, netsim.New(netsim.Config{Latency: 200 * time.Microsecond}), 4, tc.kind, tc.p)
			within(t, func() error { return tc.ops(h, func() {}) })
			if h.crossSite() == 0 {
				t.Fatal("no operation crossed sites")
			}
		})
	}
}

// TestCrossSiteOpsPeerReplyLost: the first peer reply of each operation is
// dropped. The handler waiting on it retransmits; the peer answers the
// retransmission of its at-most-once call from its duplicate-request
// cache, not by inserting the entry again (which would fail the operation
// with EEXIST); the operation completes.
func TestCrossSiteOpsPeerReplyLost(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind route.NameKind
		p    float64
		ops  func(*harness, func()) error
	}{
		{"mkdir-switching", route.MkdirSwitching, 1, crossSiteMkdirs},
		{"name-hashing", route.NameHashing, 0, crossSiteRenames},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarnessOn(t, netsim.New(netsim.Config{}), 4, tc.kind, tc.p)
			var armed atomic.Bool
			var dropped atomic.Int32
			h.net.AddTap(netsim.TapFunc(func(d []byte) netsim.Verdict {
				// A peer reply: from a directory server's service port to
				// a peer client on another server's host (the harness's
				// own client is on host 200).
				if len(d) < netsim.HeaderSize+oncrpc.ReplyHeader ||
					binary.BigEndian.Uint32(d[netsim.HeaderSize+oncrpc.OffMsgType:]) != oncrpc.MsgReply ||
					binary.BigEndian.Uint16(d[netsim.OffSrcPort:]) != 2049 {
					return netsim.Pass
				}
				src := binary.BigEndian.Uint32(d[netsim.OffSrcHost:])
				dst := binary.BigEndian.Uint32(d[netsim.OffDstHost:])
				if src == dst || dst < 10 || dst >= 14 {
					return netsim.Pass
				}
				if armed.CompareAndSwap(true, false) {
					dropped.Add(1)
					return netsim.Drop
				}
				return netsim.Pass
			}))
			within(t, func() error { return tc.ops(h, func() { armed.Store(true) }) })
			if dropped.Load() == 0 {
				t.Fatal("no peer reply was dropped")
			}
			t.Logf("%d peer replies dropped", dropped.Load())
		})
	}
}
