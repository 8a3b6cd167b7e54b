package obs_test

import (
	"strings"
	"testing"

	"slice/internal/coord"
	"slice/internal/dirsrv"
	"slice/internal/nfsproto"
	"slice/internal/obs"
	"slice/internal/replica"
	"slice/internal/storage"
)

// TestOpNameCoversServedProcedures: every (program, procedure) pair a
// server in the tree answers has a name of its own, and a pair nobody
// serves gets the numeric fallback.
func TestOpNameCoversServedProcedures(t *testing.T) {
	nfsProcs := func(ps ...nfsproto.Proc) []uint32 {
		out := make([]uint32, len(ps))
		for i, p := range ps {
			out[i] = uint32(p)
		}
		return out
	}
	served := []struct {
		prog  uint32
		procs []uint32
	}{
		// The directory servers' NFS procedures plus the data servers'
		// READ, WRITE and COMMIT.
		{nfsproto.Program, nfsProcs(nfsproto.ProcNull, nfsproto.ProcGetAttr, nfsproto.ProcSetAttr,
			nfsproto.ProcLookup, nfsproto.ProcAccess, nfsproto.ProcReadLink, nfsproto.ProcRead,
			nfsproto.ProcWrite, nfsproto.ProcCreate, nfsproto.ProcMkdir, nfsproto.ProcSymlink,
			nfsproto.ProcRemove, nfsproto.ProcRmdir, nfsproto.ProcRename, nfsproto.ProcLink,
			nfsproto.ProcReadDir, nfsproto.ProcFsStat, nfsproto.ProcCommit)},
		{nfsproto.MountProgram, []uint32{nfsproto.MountProcNull, nfsproto.MountProcMnt,
			nfsproto.MountProcDump, nfsproto.MountProcUmnt, nfsproto.MountProcUmntAll, nfsproto.MountProcExport}},
		{nfsproto.PortmapProgram, []uint32{nfsproto.PortmapProcNull, nfsproto.PortmapProcGetPort, nfsproto.PortmapProcDump}},
		{storage.ObjProgram, []uint32{storage.ObjProcRemove, storage.ObjProcTruncate}},
		{replica.PeerProgram, []uint32{replica.PeerProcList, replica.PeerProcRead, replica.PeerProcWrite,
			replica.PeerProcRemove, replica.PeerProcTruncate}},
		{dirsrv.PeerProgram, []uint32{1, 2, 3, 4, 5, 6, 7, 8, 9}}, // the peer procedures (dirsrv/peer.go)
		{coord.Program, []uint32{coord.ProcIntend, coord.ProcComplete}},
		{obs.Program, []uint32{obs.ProcSnapshot, obs.ProcTraces, obs.ProcRebalanceStatus, obs.ProcGrow, obs.ProcShrink}},
	}
	seen := make(map[string]bool)
	for _, s := range served {
		for _, proc := range s.procs {
			name := obs.OpName(s.prog, proc)
			if strings.HasPrefix(name, "prog") {
				t.Errorf("OpName(%d, %d) = %q: a served procedure has no name", s.prog, proc, name)
			}
			if seen[name] {
				t.Errorf("OpName(%d, %d) = %q: the name is taken twice", s.prog, proc, name)
			}
			seen[name] = true
		}
	}

	unknown := []struct {
		prog, proc uint32
		want       string
	}{
		{storage.ObjProgram, 3, "prog200101.proc3"}, // no stat procedure
		{coord.Program, 3, "prog200301.proc3"},      // no getmap procedure
		{replica.PeerProgram, 6, "prog200102.proc6"},
		{nfsproto.Program, uint32(nfsproto.ProcFsStat) + 1, "prog100003.proc19"},
		{12345, 7, "prog12345.proc7"},
	}
	for _, u := range unknown {
		if got := obs.OpName(u.prog, u.proc); got != u.want {
			t.Errorf("OpName(%d, %d) = %q, want %q", u.prog, u.proc, got, u.want)
		}
	}
}
