package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"slice/internal/attr"
	"slice/internal/dirsrv"
	"slice/internal/fhandle"
	"slice/internal/nfsproto"
)

// workloadSpec is one seeded, closed-loop workload. The names are fixed:
// later issues refer to them.
type workloadSpec struct {
	name string
	why  string
	tcp  bool // reach the ensemble over loopback TCP (wire.Gateway)
	// warmOps is how many ops each lane issues before the timed phase,
	// so pools, caches and the heap reach their working size. Warm-up is
	// charged to setup_s.
	warmOps   int
	newRunner func(l *lane, seed uint64, scale float64) runner
}

// runner is one lane's generator. It sees the lane's client only through
// its public calls and wraps every op in lane.begin/end.
type runner interface {
	// prefill builds the lane's starting files (charged to setup_s).
	prefill() error
	// run issues ops while lane.more(); it is called once for warm-up
	// and once for the timed phase and continues the same sequence.
	run()
	// verify checks the lane's outputs after the timed phase and returns
	// one line per violation.
	verify(d *deployment) []string
}

var workloads = []*workloadSpec{
	{
		name:      "untar",
		why:       "name-intensive creates: dirsrv, wal and the proxy name path do all the work; the tree outgrows both proxy caches",
		warmOps:   10000,
		newRunner: func(l *lane, seed uint64, _ float64) runner { return &untarRunner{l: l, rng: laneRNG(seed, l.id, 1)} },
	},
	{
		name:    "sfsmix",
		why:     "SPECsfs-like small-file mix over loopback TCP: smallfile, wire and proxy cache hits; the file set fits the caches",
		tcp:     true,
		warmOps: 4000,
		newRunner: func(l *lane, seed uint64, scale float64) runner {
			return &sfsRunner{l: l, rng: laneRNG(seed, l.id, 2), nDirs: scaled(sfsDirs, scale, 1)}
		},
	},
	{
		name:      "ddwrite",
		why:       "bulk sequential writes of fresh files: client write-behind, netsim copies, proxy I/O rewrite, storage growth",
		warmOps:   48,
		newRunner: func(l *lane, seed uint64, scale float64) runner { return newDDRunner(l, seed, scale, true) },
	},
	{
		name:      "ddread",
		why:       "bulk sequential verified reads: client readahead and reply-side copies; uses the bulk layers the other way from ddwrite",
		warmOps:   48,
		newRunner: func(l *lane, seed uint64, scale float64) runner { return newDDRunner(l, seed, scale, false) },
	},
}

func findWorkload(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func laneRNG(seed uint64, lane int, salt uint64) rng {
	return rng{s: mix64(seed) ^ mix64(uint64(lane)<<8|salt)}
}

var (
	errShort    = errors.New("moved fewer bytes than asked")
	errMismatch = errors.New("content mismatch")
)

// ---------------------------------------------------------------- untar

// untarRunner unpacks a synthetic source tree of zero-length files: 8% of
// entries are MKDIRs, the rest the paper's seven-call create sequence
// (lookup, access, create, getattr, lookup, setattr, setattr). One op is
// one client call.
type untarRunner struct {
	l        *lane
	rng      rng
	dirs     []fhandle.Handle
	children []int // entries created so far in dirs[i]
	entries  int
}

func (u *untarRunner) prefill() error {
	c := u.l.c
	top, _, err := c.Mkdir(c.Root(), fmt.Sprintf("lane%d", u.l.id), 0o755)
	if err != nil {
		return err
	}
	u.dirs, u.children = []fhandle.Handle{top}, []int{0}
	return nil
}

func (u *untarRunner) run() {
	for u.l.more() {
		u.entry()
	}
}

func (u *untarRunner) entry() {
	l, c := u.l, u.l.c
	n := u.entries
	u.entries++
	p := u.rng.intn(len(u.dirs))
	parent := u.dirs[p]
	if u.rng.intn(100) < 8 {
		l.begin(uint8(nfsproto.ProcMkdir), uint64(p)<<32|uint64(n))
		fh, _, err := c.Mkdir(parent, fmt.Sprintf("d%07d", n), 0o755)
		l.end(err)
		if err == nil {
			u.dirs, u.children = append(u.dirs, fh), append(u.children, 0)
			u.children[p]++
		}
		return
	}
	name := fmt.Sprintf("f%07d.c", n)
	arg := uint64(p)<<32 | uint64(n)

	l.begin(uint8(nfsproto.ProcLookup), arg)
	_, _, err := c.Lookup(parent, name)
	if nfsproto.StatusOf(err) == nfsproto.ErrNoEnt {
		err = nil
	} else if err == nil {
		err = fmt.Errorf("untar: %s exists before its create", name)
	}
	l.end(err)

	l.begin(uint8(nfsproto.ProcAccess), arg)
	_, err = c.Access(parent, nfsproto.AccessModify)
	l.end(err)

	l.begin(uint8(nfsproto.ProcCreate), arg)
	fh, _, err := c.Create(parent, name, 0o644, true)
	l.end(err)
	if err != nil {
		return
	}
	u.children[p]++

	l.begin(uint8(nfsproto.ProcGetAttr), arg)
	_, err = c.GetAttr(fh)
	l.end(err)

	l.begin(uint8(nfsproto.ProcLookup), arg)
	got, _, err := c.Lookup(parent, name)
	if err == nil && got != fh {
		err = fmt.Errorf("untar: lookup %s returned another handle", name)
	}
	l.end(err)

	for _, mode := range [2]uint32{0o644, 0o444} {
		l.begin(uint8(nfsproto.ProcSetAttr), arg)
		at, err := c.SetAttr(fh, attr.SetAttr{SetMode: true, Mode: mode})
		if err == nil && at.Mode&0o777 != mode {
			err = fmt.Errorf("untar: setattr %s left mode %o", name, at.Mode)
		}
		l.end(err)
	}
}

// verify lists every directory the lane made and compares its entry
// count with the generator's; lane 0 also runs the name-space fsck over
// the directory servers.
func (u *untarRunner) verify(d *deployment) []string {
	var bad []string
	for i, dir := range u.dirs {
		ents, err := u.l.c.ReadDir(dir)
		if err != nil {
			bad = append(bad, fmt.Sprintf("lane %d: readdir of dir %d: %v", u.l.id, i, err))
		} else if len(ents) != u.children[i] {
			bad = append(bad, fmt.Sprintf("lane %d: dir %d lists %d entries, generator made %d", u.l.id, i, len(ents), u.children[i]))
		}
	}
	if u.l.id == 0 {
		d.e.Proxy.WritebackAttrs()
		bad = append(bad, dirsrv.Check(d.e.Dirs, d.e.Root)...)
	}
	return bad
}

// --------------------------------------------------------------- sfsmix

const (
	sfsDirs        = 30
	sfsFilesPerDir = 50
	sfsBlock       = 4096
	sfsMaxBlocks   = 16 // 64 KiB: every file stays on the small-file servers
	sfsLinks       = 5
)

// sfsMix is the op mix in percent (SPECsfs97 proportions).
var sfsMix = [...]struct {
	op    uint8
	share int
}{
	{opLookup, 27}, {opRead, 18}, {opGetAttr, 11}, {opWrite, 9}, {opReadDir, 9},
	{opAccess, 7}, {opReadLink, 7}, {opCommit, 5}, {opFsStat, 4},
	{opSetAttr, 1}, {opCreate, 1}, {opRemove, 1},
}

const (
	opLookup uint8 = iota
	opRead
	opGetAttr
	opWrite
	opReadDir
	opAccess
	opReadLink
	opCommit
	opFsStat
	opSetAttr
	opCreate
	opRemove
)

type sfsFile struct {
	dir    int
	name   string
	fh     fhandle.Handle
	blocks int
	ver    [sfsMaxBlocks]uint8 // generation of each 4 KiB block's content
}

type sfsTemp struct {
	dir  int
	name string
}

// sfsRunner drives 1500 small files in 30 directories with the SFS mix.
// One op is one client call. Reads are 4 KiB and byte-verified: block b
// of file f at generation v has one defined content, and every write
// bumps the generation it writes.
type sfsRunner struct {
	l       *lane
	rng     rng
	nDirs   int // sfsDirs, fewer in the smoke test
	dirs    []fhandle.Handle
	dirEnts []int // expected entries per directory
	files   []sfsFile
	links   []fhandle.Handle
	temps   []sfsTemp
	tempSeq int
	buf     []byte
	want    []byte
}

// sfsBlocks draws a file size in 4 KiB blocks with the SFS skew: most
// files are a block or two, a third spread up to the 64 KiB threshold.
func sfsBlocks(r *rng) int {
	if r.intn(100) < 60 {
		return 1 + r.intn(2)
	}
	return 2 + r.intn(sfsMaxBlocks-1)
}

// sfsContent fills p with block b of file f at generation v.
func (s *sfsRunner) sfsContent(p []byte, f, b int, v uint8) {
	g := rng{s: uint64(s.l.id)<<56 ^ uint64(f)<<24 ^ uint64(b)<<8 ^ uint64(v)}
	g.fill(p)
}

func (s *sfsRunner) prefill() error {
	c := s.l.c
	s.buf, s.want = make([]byte, sfsBlock), make([]byte, sfsBlock)
	whole := make([]byte, sfsMaxBlocks*sfsBlock)
	top, _, err := c.Mkdir(c.Root(), fmt.Sprintf("lane%d", s.l.id), 0o755)
	if err != nil {
		return err
	}
	for i := 0; i < sfsLinks; i++ {
		fh, _, err := c.Symlink(top, fmt.Sprintf("l%d", i), fmt.Sprintf("/target/%d", i))
		if err != nil {
			return err
		}
		s.links = append(s.links, fh)
	}
	for d := 0; d < s.nDirs; d++ {
		dir, _, err := c.Mkdir(top, fmt.Sprintf("d%02d", d), 0o755)
		if err != nil {
			return err
		}
		s.dirs, s.dirEnts = append(s.dirs, dir), append(s.dirEnts, sfsFilesPerDir)
		for i := 0; i < sfsFilesPerDir; i++ {
			f := sfsFile{dir: d, name: fmt.Sprintf("s%02d", i), blocks: sfsBlocks(&s.rng)}
			if f.fh, _, err = c.Create(dir, f.name, 0o644, true); err != nil {
				return err
			}
			for b := 0; b < f.blocks; b++ {
				s.sfsContent(whole[b*sfsBlock:(b+1)*sfsBlock], len(s.files), b, 0)
			}
			if _, err := c.Write(f.fh, 0, whole[:f.blocks*sfsBlock], true); err != nil {
				return err
			}
			s.files = append(s.files, f)
		}
	}
	return nil
}

func (s *sfsRunner) run() {
	for s.l.more() {
		s.step()
	}
}

func (s *sfsRunner) pickOp() uint8 {
	p := s.rng.intn(100)
	for _, m := range sfsMix {
		if p < m.share {
			return m.op
		}
		p -= m.share
	}
	return opLookup
}

func (s *sfsRunner) step() {
	l, c := s.l, s.l.c
	op := s.pickOp()
	fi := s.rng.intn(len(s.files))
	f := &s.files[fi]
	if op == opRemove && len(s.temps) == 0 {
		op = opCreate // nothing to remove yet
	}
	l.begin(op, uint64(fi))
	var err error
	switch op {
	case opLookup:
		var fh fhandle.Handle
		fh, _, err = c.Lookup(s.dirs[f.dir], f.name)
		if err == nil && fh != f.fh {
			err = errMismatch
		}
	case opRead:
		b := s.rng.intn(f.blocks)
		var n int
		n, _, err = c.Read(f.fh, uint64(b)*sfsBlock, s.buf)
		s.sfsContent(s.want, fi, b, f.ver[b])
		switch {
		case err != nil:
		case n != sfsBlock:
			err = errShort
		case !bytes.Equal(s.buf, s.want):
			err = errMismatch
		default:
			l.payload += sfsBlock
		}
	case opWrite:
		b := s.rng.intn(f.blocks)
		f.ver[b]++
		s.sfsContent(s.buf, fi, b, f.ver[b])
		var n int
		n, err = c.Write(f.fh, uint64(b)*sfsBlock, s.buf, true)
		if err == nil && n != sfsBlock {
			err = errShort
		}
		if err == nil {
			l.payload += sfsBlock
		}
	case opGetAttr:
		var at attr.Attr
		at, err = c.GetAttr(f.fh)
		if err == nil && at.Size != uint64(f.blocks)*sfsBlock {
			err = fmt.Errorf("sfsmix: file %d has size %d, want %d", fi, at.Size, f.blocks*sfsBlock)
		}
	case opReadDir:
		var ents []nfsproto.DirEntry
		ents, err = c.ReadDir(s.dirs[f.dir])
		if err == nil && len(ents) != s.dirEnts[f.dir] {
			err = fmt.Errorf("sfsmix: dir %d lists %d entries, want %d", f.dir, len(ents), s.dirEnts[f.dir])
		}
	case opAccess:
		_, err = c.Access(f.fh, nfsproto.AccessRead)
	case opReadLink:
		k := fi % sfsLinks
		var target string
		target, err = c.ReadLink(s.links[k])
		if err == nil && target != fmt.Sprintf("/target/%d", k) {
			err = errMismatch
		}
	case opCommit:
		_, err = c.Commit(f.fh)
	case opFsStat:
		_, err = c.FsStat(c.Root())
	case opSetAttr:
		_, err = c.SetAttr(f.fh, attr.SetAttr{SetMode: true, Mode: 0o600 | uint32(fi&0o77)})
	case opCreate:
		t := sfsTemp{dir: f.dir, name: fmt.Sprintf("t%06d", s.tempSeq)}
		s.tempSeq++
		_, _, err = c.Create(s.dirs[t.dir], t.name, 0o644, true)
		if err == nil {
			s.temps = append(s.temps, t)
			s.dirEnts[t.dir]++
		}
	case opRemove:
		t := s.temps[len(s.temps)-1]
		s.temps = s.temps[:len(s.temps)-1]
		err = c.Remove(s.dirs[t.dir], t.name)
		if err == nil {
			s.dirEnts[t.dir]--
		}
	}
	l.end(err)
}

// verify reads every block of every file once more against the
// generator's final generations.
func (s *sfsRunner) verify(*deployment) []string {
	var bad []string
	for fi := range s.files {
		f := &s.files[fi]
		for b := 0; b < f.blocks; b++ {
			n, _, err := s.l.c.Read(f.fh, uint64(b)*sfsBlock, s.buf)
			s.sfsContent(s.want, fi, b, f.ver[b])
			if err != nil || n != sfsBlock || !bytes.Equal(s.buf, s.want) {
				bad = append(bad, fmt.Sprintf("lane %d: file %d block %d: n=%d err=%v", s.l.id, fi, b, n, err))
			}
		}
	}
	return bad
}

// ------------------------------------------------------- ddwrite, ddread

const (
	ddFileSize = 32 << 20
	ddIOSize   = 64 << 10
	ddExtent   = 1 << 20 // one op: 16 calls of ddIOSize
)

// ddRunner moves 32 MiB files in 64 KiB client calls. One op is one
// 1 MiB extent (16 calls), which smooths the readahead hit/miss
// bimodality of single 64 KiB reads; calls at a file boundary (create,
// commit, remove) are charged to the adjacent extent. On both workloads
// ops_per_s is therefore MiB/s.
//
// Content is a window into one seeded pattern buffer, so generating a
// buffer costs no copy and every byte read back has a known value.
type ddRunner struct {
	l       *lane
	write   bool
	extents int    // extents per file: ddFileSize/ddExtent, fewer in the smoke test
	pattern []byte // one file + ddExtent seeded bytes
	dir     fhandle.Handle
	buf     []byte

	fileN   int            // ddwrite: files created so far
	cur     fhandle.Handle // file being written / the prefilled read file
	curOff  int            // pattern offset of cur's first byte
	extent  int            // next extent within cur
	written int            // ddwrite: extents of cur written and not yet verified
}

func newDDRunner(l *lane, seed uint64, scale float64, write bool) *ddRunner {
	d := &ddRunner{l: l, write: write, extents: scaled(ddFileSize/ddExtent, scale, 2), buf: make([]byte, ddIOSize)}
	d.pattern = make([]byte, (d.extents+1)*ddExtent)
	g := laneRNG(seed, l.id, 3)
	g.fill(d.pattern)
	return d
}

func ddName(n int) string { return fmt.Sprintf("w%05d", n) }

// patternOff gives file n a distinct, 8-aligned window of the pattern.
func patternOff(n int) int { return (n * 4104) % ddExtent }

func (d *ddRunner) prefill() error {
	c := d.l.c
	var err error
	if d.dir, _, err = c.Mkdir(c.Root(), fmt.Sprintf("lane%d", d.l.id), 0o755); err != nil {
		return err
	}
	if d.write {
		return nil
	}
	if d.cur, _, err = c.Create(d.dir, "r", 0o644, true); err != nil {
		return err
	}
	for off := 0; off < d.extents*ddExtent; off += ddIOSize {
		if _, err = c.Write(d.cur, uint64(off), d.pattern[off:off+ddIOSize], false); err != nil {
			return err
		}
	}
	_, err = c.Commit(d.cur)
	return err
}

func (d *ddRunner) run() {
	for d.l.more() {
		if d.write {
			d.writeExtent()
		} else {
			d.readExtent()
		}
	}
}

func (d *ddRunner) writeExtent() {
	l, c := d.l, d.l.c
	if d.extent == 0 {
		d.curOff = patternOff(d.fileN)
	}
	l.begin(1, uint64(d.fileN)<<32^binary.LittleEndian.Uint64(d.pattern[d.curOff+d.extent*ddExtent:]))
	var err error
	if d.extent == 0 {
		d.cur, _, err = c.Create(d.dir, ddName(d.fileN), 0o644, true)
	}
	base := d.extent * ddExtent
	for off := base; err == nil && off < base+ddExtent; off += ddIOSize {
		var n int
		n, err = c.Write(d.cur, uint64(off), d.pattern[d.curOff+off:d.curOff+off+ddIOSize], false)
		if err == nil && n != ddIOSize {
			err = errShort
		}
	}
	d.extent++
	d.written = d.extent
	if err == nil && d.extent == d.extents {
		// File complete: make it durable, then drop the one before it
		// so the array holds at most two files per lane.
		if _, err = c.Commit(d.cur); err == nil && d.fileN > 0 {
			err = c.Remove(d.dir, ddName(d.fileN-1))
		}
		d.fileN++
		d.extent = 0
	}
	if err == nil {
		l.payload += ddExtent
	}
	l.end(err)
}

func (d *ddRunner) readExtent() {
	l, c := d.l, d.l.c
	base := d.extent * ddExtent
	l.begin(2, binary.LittleEndian.Uint64(d.pattern[base:]))
	var err error
	for off := base; err == nil && off < base+ddExtent; off += ddIOSize {
		sends := l.sends()
		var n int
		n, _, err = c.Read(d.cur, uint64(off), d.buf)
		l.reads++
		if l.sends() == sends {
			l.raHits++
		}
		switch {
		case err != nil:
		case n != ddIOSize:
			err = errShort
		case !bytes.Equal(d.buf, d.pattern[off:off+ddIOSize]):
			err = errMismatch
		}
	}
	d.extent = (d.extent + 1) % d.extents
	if err == nil {
		l.payload += ddExtent
	}
	l.end(err)
}

// verify reads back what ddwrite wrote of its last file. ddread verified
// every buffer in the timed phase already.
func (d *ddRunner) verify(*deployment) []string {
	if !d.write {
		return nil
	}
	c := d.l.c
	fh, off, n := d.cur, d.curOff, d.written*ddExtent
	if _, err := c.Commit(fh); err != nil {
		return []string{fmt.Sprintf("lane %d: commit of last file: %v", d.l.id, err)}
	}
	got := make([]byte, n)
	m, _, err := c.Read(fh, 0, got)
	if err != nil || m != n || !bytes.Equal(got, d.pattern[off:off+n]) {
		return []string{fmt.Sprintf("lane %d: last file reads back %d of %d bytes, err=%v, equal=%v",
			d.l.id, m, n, err, bytes.Equal(got[:m], d.pattern[off:off+m]))}
	}
	return nil
}
