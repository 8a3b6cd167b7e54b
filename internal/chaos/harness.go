// Package chaos exercises Slice's failure model end to end: components
// are crashed, partitioned, and restarted from their write-ahead logs
// while clients keep issuing work, and the tests assert the paper's
// recovery guarantees — acknowledged updates survive, no data blocks are
// orphaned, and clients ride out every fault through ordinary end-to-end
// retransmission (§2.1, §2.3, §4.2).
//
// This file is the workload harness the chaos tests share; the fault
// scenarios themselves live in the test files.
package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"os"
	"path/filepath"
	"strings"

	"slice/internal/checksum"
	"slice/internal/client"
	"slice/internal/dirsrv"
	"slice/internal/ensemble"
	"slice/internal/fhandle"
	"slice/internal/nfsproto"
	"slice/internal/oncrpc"
	"slice/internal/storage"
	"slice/internal/wal"
)

// Retry runs op until it succeeds, fails with a permanent (non-timeout)
// error, or the budget expires. Timeouts are the signature of a crashed
// or partitioned component, and retrying through them is exactly the
// end-to-end recovery the architecture prescribes for clients.
func Retry(budget time.Duration, op func() error) error {
	deadline := time.Now().Add(budget)
	for {
		err := op()
		if err == nil || !errors.Is(err, oncrpc.ErrTimedOut) {
			return err
		}
		if time.Now().After(deadline) {
			return err
		}
	}
}

// WaitFor polls cond every few milliseconds until it holds or the budget
// expires, reporting whether it held.
func WaitFor(budget time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(budget)
	for {
		if cond() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Entry is one acknowledged namespace update made by the workload.
type Entry struct {
	Parent fhandle.Handle
	Name   string
	FH     fhandle.Handle
	Dir    bool
}

// UntarConfig shapes the fault-tolerant untar workload.
type UntarConfig struct {
	Dirs  int // directories created first, nested under each other
	Files int // files spread round-robin over the directories
	// OpBudget bounds the retries of one operation across injected
	// faults; it must exceed the longest crash-to-restart window.
	OpBudget time.Duration
	// OnEntry, when set, observes each acknowledged entry (1-based
	// count); chaos tests use it to trigger faults mid-workload.
	OnEntry func(n int)
}

// Untar unpacks a synthetic tree under root, tolerating the transient
// failures chaos injects: timed-out operations are retried, and a
// retried create that finds its entry already present (the first attempt
// landed; only its acknowledgement was lost) resolves the existing entry
// and counts it as acknowledged. It returns every acknowledged entry so
// the caller can assert none were lost.
func Untar(c *client.Client, root fhandle.Handle, cfg UntarConfig) ([]Entry, error) {
	if cfg.OpBudget <= 0 {
		cfg.OpBudget = 10 * time.Second
	}
	acked := make([]Entry, 0, cfg.Dirs+cfg.Files)
	note := func(e Entry) {
		acked = append(acked, e)
		if cfg.OnEntry != nil {
			cfg.OnEntry(len(acked))
		}
	}

	parents := []fhandle.Handle{root}
	for i := 0; i < cfg.Dirs; i++ {
		parent := parents[i%len(parents)]
		name := fmt.Sprintf("d%03d", i)
		fh, err := ensure(c, cfg.OpBudget, parent, name, true)
		if err != nil {
			return acked, fmt.Errorf("chaos untar: mkdir %s: %w", name, err)
		}
		parents = append(parents, fh)
		note(Entry{Parent: parent, Name: name, FH: fh, Dir: true})
	}
	for i := 0; i < cfg.Files; i++ {
		parent := parents[1+i%(len(parents)-1)]
		name := fmt.Sprintf("f%04d.c", i)
		fh, err := ensure(c, cfg.OpBudget, parent, name, false)
		if err != nil {
			return acked, fmt.Errorf("chaos untar: create %s: %w", name, err)
		}
		note(Entry{Parent: parent, Name: name, FH: fh})
	}
	return acked, nil
}

// ensure creates (dir or file) the named entry, resolving it instead if
// a lost acknowledgement made the retry collide with its own earlier
// success.
func ensure(c *client.Client, budget time.Duration, parent fhandle.Handle, name string, dir bool) (fhandle.Handle, error) {
	var fh fhandle.Handle
	err := Retry(budget, func() error {
		var h fhandle.Handle
		var err error
		if dir {
			h, _, err = c.Mkdir(parent, name, 0o755)
		} else {
			h, _, err = c.Create(parent, name, 0o644, true)
		}
		if err != nil && nfsproto.StatusOf(err) == nfsproto.ErrExist {
			h, _, err = c.Lookup(parent, name)
		}
		if err == nil {
			fh = h
		}
		return err
	})
	return fh, err
}

// FsckClean asserts the namespace passes the cross-server consistency
// check — the closing assertion of every chaos scenario.
func FsckClean(t testing.TB, e *ensemble.Ensemble) {
	t.Helper()
	if problems := dirsrv.Check(e.Dirs, e.Root); len(problems) != 0 {
		t.Fatalf("fsck found %d problems after recovery: %v", len(problems), problems)
	}
}

// VerifyBytes reads fh back through both the windowed (readahead
// pipelined) path and a serial client and asserts each returns exactly
// want — the byte-identity check the bulk chaos scenarios share.
func VerifyBytes(t testing.TB, e *ensemble.Ensemble, c *client.Client, fh fhandle.Handle, want []byte) {
	t.Helper()
	sum := checksum.Sum(want)
	got, err := c.ReadAll(fh)
	if err != nil {
		t.Fatalf("windowed read back: %v", err)
	}
	if len(got) != len(want) || checksum.Sum(got) != sum {
		t.Fatalf("windowed read: %d bytes sum %#x, want %d bytes sum %#x",
			len(got), checksum.Sum(got), len(want), sum)
	}
	serial, err := e.NewSerialClient()
	if err != nil {
		t.Fatal(err)
	}
	defer serial.Close()
	got2, err := serial.ReadAll(fh)
	if err != nil {
		t.Fatalf("serial read back: %v", err)
	}
	if !bytes.Equal(got, got2) {
		t.Fatal("windowed and serial readers disagree byte-for-byte")
	}
}

// ReplicaGroupsIdentical asserts every live member of every replica
// group holds byte-identical copies of every object.
func ReplicaGroupsIdentical(t testing.TB, e *ensemble.Ensemble) {
	t.Helper()
	if e.Replicas == nil {
		t.Fatal("ensemble is not replicated")
	}
	for _, g := range e.Replicas.Groups() {
		var members []*storage.Node
		for _, a := range g.Members {
			i := int(a.Host - ensemble.HostStorage0)
			if i < 0 || i >= len(e.Storage) || e.Storage[i] == nil {
				t.Fatalf("replica group %d member %v is down", g.ID, a)
			}
			members = append(members, e.Storage[i])
		}
		ref := members[0].Store()
		var after storage.ObjectID
		for {
			page := ref.ListAfter(after, 128)
			if len(page) == 0 {
				break
			}
			for _, ent := range page {
				after = ent.ID
				want := make([]byte, ent.Size)
				if ent.Size > 0 {
					ref.ReadAt(ent.ID, 0, want)
				}
				for mi, m := range members[1:] {
					size, ok := m.Store().Size(ent.ID)
					if !ok || size != ent.Size {
						t.Fatalf("group %d member %d: object %d size %d, want %d (ok=%v)",
							g.ID, mi+1, ent.ID, size, ent.Size, ok)
					}
					got := make([]byte, ent.Size)
					if ent.Size > 0 {
						m.Store().ReadAt(ent.ID, 0, got)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("group %d member %d: object %d differs from primary", g.ID, mi+1, ent.ID)
					}
				}
			}
		}
	}
}

// VerifyAcked resolves every acknowledged entry through the live stack
// and returns the ones that no longer exist or changed identity — the
// lost-update check the chaos scenarios assert empty.
func VerifyAcked(c *client.Client, budget time.Duration, acked []Entry) []string {
	var lost []string
	for _, e := range acked {
		var got fhandle.Handle
		err := Retry(budget, func() error {
			h, _, err := c.Lookup(e.Parent, e.Name)
			got = h
			return err
		})
		switch {
		case err != nil:
			lost = append(lost, fmt.Sprintf("%s: %v", e.Name, err))
		case got.Ident() != e.FH.Ident():
			lost = append(lost, fmt.Sprintf("%s: identity changed", e.Name))
		}
	}
	return lost
}

// ArtifactsOnFailure registers a cleanup that, when the test fails and
// CHAOS_ARTIFACT_DIR is set (the nightly CI matrix points it at the
// upload directory), dumps the ensemble's forensic state there: every
// intention log (coordinator, directory servers, small-file servers) as
// raw WAL bytes, a cluster-wide obs snapshot, and every call in the
// roles' event rings, stitched (obs_events.json). Without the env var
// this is a no-op, so local runs stay clean.
func ArtifactsOnFailure(t testing.TB, e *ensemble.Ensemble) {
	dir := os.Getenv("CHAOS_ARTIFACT_DIR")
	if dir == "" {
		return
	}
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		sub := filepath.Join(dir, strings.ReplaceAll(t.Name(), "/", "_"))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Logf("artifacts: %v", err)
			return
		}
		if err := os.WriteFile(filepath.Join(sub, "obs_snapshot.json"), e.Obs.SnapshotJSON(), 0o644); err != nil {
			t.Logf("artifacts: %v", err)
		}
		if err := os.WriteFile(filepath.Join(sub, "obs_events.json"), e.Obs.StitchJSON(0, math.MaxInt), 0o644); err != nil {
			t.Logf("artifacts: %v", err)
		}
		dump := func(name string, store *wal.MemStore) {
			if store == nil {
				return
			}
			b, err := store.Contents()
			if err != nil {
				t.Logf("artifacts: %s: %v", name, err)
				return
			}
			if err := os.WriteFile(filepath.Join(sub, name), b, 0o644); err != nil {
				t.Logf("artifacts: %s: %v", name, err)
			}
		}
		dump("coord.wal", e.CoordLog)
		for i, s := range e.DirLogs {
			dump(fmt.Sprintf("dir%d.wal", i), s)
		}
		for i, s := range e.SmallLogs {
			dump(fmt.Sprintf("small%d.wal", i), s)
		}
		t.Logf("artifacts: dumped WALs, obs snapshot and events to %s", sub)
	})
}
