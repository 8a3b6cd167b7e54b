package workload

import (
	"fmt"

	"slice/internal/attr"
	"slice/internal/client"
	"slice/internal/fhandle"
)

// SfsConfig shapes the SPECsfs97-like generator for the live stack.
type SfsConfig struct {
	// Files in the working set; sizes follow the SFS skew (94% ≤ 64KB,
	// but small files hold only ~24% of bytes).
	Files int
	// Ops to issue.
	Ops int
	// Prefix isolates this generator's directory.
	Prefix string
	Seed   uint64
}

func (c *SfsConfig) defaults() {
	if c.Files <= 0 {
		c.Files = 100
	}
	if c.Ops <= 0 {
		c.Ops = 1000
	}
	if c.Prefix == "" {
		c.Prefix = "sfs"
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// SfsStats counts operations by class and verifies reads.
type SfsStats struct {
	NameOps  int
	Reads    int
	Writes   int
	Commits  int
	Creates  int
	Removes  int
	ReadErrs int
	Bytes    uint64
}

// sfsFileSize draws a file size from the SFS-like distribution: most
// files are small, a few are large enough to cross the 64KB threshold.
func sfsFileSize(r *prng) int {
	u := r.intn(100)
	switch {
	case u < 60:
		return 1 + r.intn(8*1024) // ≤ 8KB
	case u < 94:
		return 8*1024 + r.intn(56*1024) // 8–64KB
	case u < 99:
		return 64*1024 + r.intn(192*1024) // 64–256KB: crosses threshold
	default:
		return 256*1024 + r.intn(256*1024)
	}
}

// Sfs runs an SFS-like operation mix against the live stack and verifies
// every read against the expected contents.
func Sfs(c *client.Client, root fhandle.Handle, cfg SfsConfig) (SfsStats, error) {
	cfg.defaults()
	rng := prng{s: cfg.Seed*97 + 3}
	var st SfsStats

	dir, _, err := c.Mkdir(root, cfg.Prefix, 0o755)
	if err != nil {
		return st, fmt.Errorf("sfs: mkdir: %w", err)
	}

	// A handful of symlinks for the READLINK share of the mix (7%).
	var links []fhandle.Handle
	for i := 0; i < 5; i++ {
		lnk, _, err := c.Symlink(dir, fmt.Sprintf("l%d", i), fmt.Sprintf("/target/%d", i))
		if err != nil {
			return st, fmt.Errorf("sfs: symlink: %w", err)
		}
		links = append(links, lnk)
	}

	type file struct {
		name string
		fh   fhandle.Handle
		size int
		seed byte
	}
	var files []file

	fill := func(size int, seed byte) []byte {
		p := make([]byte, size)
		for i := range p {
			p[i] = seed + byte(i)
		}
		return p
	}

	// Populate the working set.
	for i := 0; i < cfg.Files; i++ {
		name := fmt.Sprintf("s%05d", i)
		fh, _, err := c.Create(dir, name, 0o644, true)
		if err != nil {
			return st, fmt.Errorf("sfs: create %s: %w", name, err)
		}
		size := sfsFileSize(&rng)
		seed := byte(i)
		if err := c.WriteFile(fh, fill(size, seed)); err != nil {
			return st, fmt.Errorf("sfs: populate %s: %w", name, err)
		}
		files = append(files, file{name: name, fh: fh, size: size, seed: seed})
		st.Creates++
		st.Writes++
		st.Bytes += uint64(size)
	}

	// The mix (SFS97 shares, non-implemented ops folded into lookups).
	for op := 0; op < cfg.Ops; op++ {
		f := &files[rng.intn(len(files))]
		u := rng.intn(100)
		switch {
		case u < 53: // lookup/getattr/access/readlink...
			if _, _, err := c.Lookup(dir, f.name); err != nil {
				return st, fmt.Errorf("sfs: lookup: %w", err)
			}
			st.NameOps++
		case u < 60: // readdir / fsstat
			if _, err := c.ReadDir(dir); err != nil {
				return st, fmt.Errorf("sfs: readdir: %w", err)
			}
			st.NameOps++
		case u < 64: // readlink
			lnk := links[rng.intn(len(links))]
			if _, err := c.ReadLink(lnk); err != nil {
				return st, fmt.Errorf("sfs: readlink: %w", err)
			}
			st.NameOps++
		case u < 82: // read, verified
			off := 0
			if f.size > 1024 {
				off = rng.intn(f.size - 1024)
			}
			n := 1024
			if off+n > f.size {
				n = f.size - off
			}
			buf := make([]byte, n)
			got, _, err := c.Read(f.fh, uint64(off), buf)
			if err != nil {
				return st, fmt.Errorf("sfs: read: %w", err)
			}
			for i := 0; i < got; i++ {
				if buf[i] != f.seed+byte(off+i) {
					st.ReadErrs++
					break
				}
			}
			st.Reads++
			st.Bytes += uint64(got)
		case u < 91: // write (overwrite in place, keeping the pattern)
			off := 0
			if f.size > 512 {
				off = rng.intn(f.size - 512)
			}
			n := 512
			if off+n > f.size {
				n = f.size - off
			}
			if _, err := c.Write(f.fh, uint64(off), fill(n, f.seed+byte(off)), false); err != nil {
				return st, fmt.Errorf("sfs: write: %w", err)
			}
			st.Writes++
			st.Bytes += uint64(n)
		case u < 96: // commit
			if _, err := c.Commit(f.fh); err != nil {
				return st, fmt.Errorf("sfs: commit: %w", err)
			}
			st.Commits++
		case u < 98: // setattr
			if _, err := c.SetAttr(f.fh, setMode(0o640)); err != nil {
				return st, fmt.Errorf("sfs: setattr: %w", err)
			}
			st.NameOps++
		default: // remove + recreate (keeps the set stable)
			if err := c.Remove(dir, f.name); err != nil {
				return st, fmt.Errorf("sfs: remove: %w", err)
			}
			st.Removes++
			fh, _, err := c.Create(dir, f.name, 0o644, true)
			if err != nil {
				return st, fmt.Errorf("sfs: recreate: %w", err)
			}
			f.fh = fh
			f.size = sfsFileSize(&rng)
			f.seed++
			if err := c.WriteFile(fh, fill(f.size, f.seed)); err != nil {
				return st, fmt.Errorf("sfs: refill: %w", err)
			}
			st.Creates++
			st.Writes++
			st.Bytes += uint64(f.size)
		}
	}
	return st, nil
}

// DDConfig shapes sequential bulk I/O (the dd test of Table 2).
type DDConfig struct {
	Name  string
	Bytes int
	Write bool
	// Verify checks read contents against the write pattern.
	Verify bool
}

// DDStats reports the transfer.
type DDStats struct {
	Bytes    int
	Mismatch bool
}

// DD performs a sequential write (creating the file) or a sequential read
// of the named file under root.
func DD(c *client.Client, root fhandle.Handle, cfg DDConfig) (DDStats, error) {
	var st DDStats
	if cfg.Name == "" {
		cfg.Name = "dd.dat"
	}
	if cfg.Bytes <= 0 {
		cfg.Bytes = 1 << 20
	}
	if cfg.Write {
		fh, _, err := c.Create(root, cfg.Name, 0o644, false)
		if err != nil {
			return st, fmt.Errorf("dd: create: %w", err)
		}
		buf := make([]byte, 64*1024)
		for off := 0; off < cfg.Bytes; off += len(buf) {
			n := len(buf)
			if off+n > cfg.Bytes {
				n = cfg.Bytes - off
			}
			for i := 0; i < n; i++ {
				buf[i] = byte((off + i) * 131)
			}
			if _, err := c.Write(fh, uint64(off), buf[:n], false); err != nil {
				return st, fmt.Errorf("dd: write at %d: %w", off, err)
			}
			st.Bytes += n
		}
		if _, err := c.Commit(fh); err != nil {
			return st, fmt.Errorf("dd: commit: %w", err)
		}
		return st, nil
	}
	fh, _, err := c.Lookup(root, cfg.Name)
	if err != nil {
		return st, fmt.Errorf("dd: lookup: %w", err)
	}
	buf := make([]byte, 64*1024)
	for off := 0; off < cfg.Bytes; {
		n, eof, err := c.Read(fh, uint64(off), buf)
		if err != nil {
			return st, fmt.Errorf("dd: read at %d: %w", off, err)
		}
		if cfg.Verify {
			for i := 0; i < n; i++ {
				if buf[i] != byte((off+i)*131) {
					st.Mismatch = true
				}
			}
		}
		off += n
		st.Bytes += n
		if eof || n == 0 {
			break
		}
	}
	return st, nil
}

func setMode(mode uint32) attr.SetAttr {
	return attr.SetAttr{SetMode: true, Mode: mode}
}
