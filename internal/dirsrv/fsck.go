package dirsrv

import (
	"fmt"
	"sort"

	"slice/internal/attr"
	"slice/internal/fhandle"
)

// This file implements an offline cross-site integrity checker for the
// distributed name space. The paper's prototype left recovery tooling
// incomplete (§4.3); Check gives this implementation a verifiable
// statement of the invariants the peer protocol maintains:
//
//   - referential integrity: every name cell's child has a live attribute
//     cell (on some site) with a matching generation;
//   - link counts: a regular file's nlink equals the number of name cells
//     referencing it across all sites; a directory's nlink equals 2 plus
//     its number of child directories;
//   - no orphans: every attribute cell except the volume root is
//     referenced by at least one name cell;
//   - no duplicate names: at most one name cell per (parent, name).

// stateDump is a consistent copy of one server's cells.
type stateDump struct {
	site  uint32
	attrs map[uint64]attrCell
	cells []nameCell
}

// dump snapshots the server's state, holding every shard's lock, taken
// in ascending order.
func (s *Server) dump() stateDump {
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
	defer func() {
		for i := range s.shards {
			s.shards[i].unlock()
		}
	}()
	d := stateDump{site: s.site, attrs: make(map[uint64]attrCell)}
	for i := range s.shards {
		sh := &s.shards[i]
		for k, c := range sh.attrs {
			d.attrs[k] = *c
		}
		for _, chain := range sh.chains {
			for _, c := range chain {
				d.cells = append(d.cells, *c)
			}
		}
	}
	return d
}

// Check scans the given directory servers (one volume's full ensemble)
// and returns a sorted list of integrity violations, empty if the name
// space is consistent. root identifies the volume root, which legally has
// no referencing name cell.
func Check(servers []*Server, root fhandle.Handle) []string {
	var problems []string
	addf := func(format string, args ...interface{}) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	dumps := make([]stateDump, len(servers))
	for i, s := range servers {
		dumps[i] = s.dump()
	}

	// Global indices.
	type cellLoc struct {
		cell attrCell
		site uint32
	}
	attrsByID := make(map[uint64]cellLoc)
	for _, d := range dumps {
		for id, c := range d.attrs {
			if prev, dup := attrsByID[id]; dup {
				addf("attr cell %d present on sites %d and %d", id, prev.site, d.site)
			}
			attrsByID[id] = cellLoc{cell: c, site: d.site}
		}
	}
	refCount := make(map[uint64]int)     // fileID -> referencing name cells
	subdirCount := make(map[uint64]int)  // parent fileID -> child directories
	seenNames := make(map[string]uint32) // parent/name -> site
	for _, d := range dumps {
		for _, c := range d.cells {
			key := fmt.Sprintf("%d/%d:%s", c.parent.Volume, c.parent.FileID, c.name)
			if prev, dup := seenNames[key]; dup {
				addf("duplicate name cell %q on sites %d and %d", key, prev, d.site)
			}
			seenNames[key] = d.site

			refCount[c.child.FileID]++
			if c.child.Type == uint8(attr.TypeDir) {
				subdirCount[c.parent.FileID]++
			}

			loc, ok := attrsByID[c.child.FileID]
			if !ok {
				addf("name cell %q references missing attr cell %d", key, c.child.FileID)
				continue
			}
			if loc.cell.fh.Gen != c.child.Gen {
				addf("name cell %q references generation %d, cell has %d",
					key, c.child.Gen, loc.cell.fh.Gen)
			}
		}
	}

	for id, loc := range attrsByID {
		c := loc.cell
		switch c.at.Type {
		case attr.TypeDir:
			if id == root.FileID {
				wantNlink := uint32(2 + subdirCount[id])
				if c.at.Nlink != wantNlink {
					addf("root nlink %d, want %d", c.at.Nlink, wantNlink)
				}
				continue
			}
			if refCount[id] == 0 {
				addf("orphan directory cell %d on site %d", id, loc.site)
			}
			wantNlink := uint32(2 + subdirCount[id])
			if c.at.Nlink != wantNlink {
				addf("directory %d nlink %d, want %d (2 + %d subdirs)",
					id, c.at.Nlink, wantNlink, subdirCount[id])
			}
		case attr.TypeReg, attr.TypeLink:
			if refCount[id] == 0 {
				addf("orphan file cell %d on site %d", id, loc.site)
			}
			if int(c.at.Nlink) != refCount[id] {
				addf("file %d nlink %d, but %d name cells reference it",
					id, c.at.Nlink, refCount[id])
			}
		}
	}

	sort.Strings(problems)
	return problems
}
