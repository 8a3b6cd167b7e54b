package bench

import (
	"fmt"
	"hash/fnv"
	"io"

	"slice/internal/fhandle"
	"slice/internal/netsim"
	"slice/internal/route"
	"slice/internal/sim"
)

// Ablation benches probe the design choices DESIGN.md calls out, beyond
// the paper's own figures.

// AblationHash compares the MD5 name fingerprint (the paper determined
// "empirically that MD5 yields a combination of balanced distribution and
// low cost superior to competing hash functions") against FNV-1a, across
// site counts.
func AblationHash(w io.Writer) error {
	header(w, "Ablation: name-hash balance (MD5 vs FNV-1a)",
		"Peak-to-mean load ratio routing 100k names across N logical sites;\n"+
			"1.00 is perfect balance.")

	parent := fhandle.Handle{Volume: 1, FileID: 42, Gen: 1}
	const names = 100000
	fnvKey := func(name string) uint64 {
		h := fnv.New64a()
		h.Write(parent.Marshal())
		h.Write([]byte(name))
		return h.Sum64()
	}

	t := newTable("sites", "md5 peak/mean", "fnv peak/mean")
	for _, sites := range []int{2, 4, 8, 16, 64} {
		md5Counts := make([]int, sites)
		fnvCounts := make([]int, sites)
		for i := 0; i < names; i++ {
			name := fmt.Sprintf("file-%d.c", i)
			md5Counts[int(fhandle.NameKey(parent, name)%uint64(sites))]++
			fnvCounts[int(fnvKey(name)%uint64(sites))]++
		}
		peak := func(c []int) float64 {
			m := 0
			for _, v := range c {
				if v > m {
					m = v
				}
			}
			return float64(m) / (float64(names) / float64(sites))
		}
		t.addf("%d|%.3f|%.3f", sites, peak(md5Counts), peak(fnvCounts))
	}
	t.write(w)
	fmt.Fprintln(w, "\n  Both spread structured names well on this input; MD5's advantage in")
	fmt.Fprintln(w, "  the paper was robustness across adversarial/structured key sets.")
	return nil
}

// AblationThreshold sweeps the small-file threshold offset and reports
// how the SPECsfs-skewed file population splits between the small-file
// servers and the storage array (§3.1's separation policy).
func AblationThreshold(w io.Writer) error {
	header(w, "Ablation: small-file threshold offset",
		"SFS-skewed file sizes (94% ≤64KB holding ≈24% of bytes): share of\n"+
			"requests and bytes absorbed by the small-file servers per threshold.")

	// Deterministic SFS-like size sample.
	sizes := make([]int, 0, 20000)
	var rng uint64 = 99
	next := func(n int) int {
		rng ^= rng >> 12
		rng ^= rng << 25
		rng ^= rng >> 27
		return int((rng * 0x2545F4914F6CDD1D) % uint64(n))
	}
	for i := 0; i < 20000; i++ {
		u := next(100)
		switch {
		case u < 60:
			sizes = append(sizes, 1+next(8<<10))
		case u < 94:
			sizes = append(sizes, 8<<10+next(56<<10))
		case u < 99:
			// The 6% of large files hold ≈3/4 of the bytes ("the large
			// files serve to pollute the disks", §5).
			sizes = append(sizes, 64<<10+next(448<<10))
		default:
			sizes = append(sizes, 1<<20+next(3<<20))
		}
	}

	t := newTable("threshold", "reqs to small-file", "bytes to small-file", "files fully small")
	for _, thr := range []int{8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10} {
		var reqSF, reqAll, bytesSF, bytesAll, fullySmall int
		for _, size := range sizes {
			// Sequential whole-file access in 8KB requests.
			for off := 0; off < size; off += 8 << 10 {
				reqAll++
				n := 8 << 10
				if off+n > size {
					n = size - off
				}
				bytesAll += n
				if off < thr {
					reqSF++
					bytesSF += n
				}
			}
			if size <= thr {
				fullySmall++
			}
		}
		t.addf("%dKB|%.1f%%|%.1f%%|%.1f%%",
			thr>>10,
			float64(reqSF)/float64(reqAll)*100,
			float64(bytesSF)/float64(bytesAll)*100,
			float64(fullySmall)/float64(len(sizes))*100)
	}
	t.write(w)
	fmt.Fprintln(w, "\n  The paper's 64KB threshold keeps ≈94% of files entirely on the")
	fmt.Fprintln(w, "  small-file servers while most BYTES of large files still bypass them —")
	fmt.Fprintln(w, "  the separation §3.1 is after.")
	return nil
}

// AblationPlacement compares static striping against coordinator block
// maps: stripe balance across the array and the per-file state the
// coordinator would keep for the added placement flexibility. Block maps
// are retired from the live stack; their column is a model of the
// allocator they used, which handed out sites round-robin from one cursor
// shared by every file (cursor++ mod n) and journaled one entry per stripe.
func AblationPlacement(w io.Writer) error {
	header(w, "Ablation: static striping vs coordinator block maps",
		"Distributing 64 files × 64 stripes over 8 storage nodes.")

	const nodes, files, stripes = 8, 64, 64
	var addrs []netsim.Addr
	for i := 0; i < nodes; i++ {
		addrs = append(addrs, netsim.Addr{Host: uint32(10 + i), Port: 2049})
	}
	table := route.NewTable(nodes, addrs)

	static := make([]int, nodes)
	for f := 0; f < files; f++ {
		fh := fhandle.Handle{Volume: 1, FileID: uint64(f + 1), Gen: 1}
		for s := uint64(0); s < stripes; s++ {
			static[table.Site(route.PlacementKey(fhandle.HandleKey(fh), s))]++
		}
	}
	mapped := make([]int, nodes)
	for cursor := 0; cursor < files*stripes; cursor++ {
		mapped[cursor%nodes]++
	}

	spread := func(c []int) (int, int) {
		mn, mx := c[0], c[0]
		for _, v := range c {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		return mn, mx
	}
	sMin, sMax := spread(static)
	mMin, mMax := spread(mapped)
	t := newTable("policy", "min stripes/node", "max stripes/node", "coordinator state")
	t.addf("static striping|%d|%d|none", sMin, sMax)
	t.addf("block maps|%d|%d|%d map entries + log", mMin, mMax, files*stripes)
	t.write(w)
	fmt.Fprintln(w, "\n  Static placement needs no per-file state but is fixed at write time;")
	fmt.Fprintln(w, "  block maps match its balance while allowing policy-driven placement,")
	fmt.Fprintln(w, "  at the cost of coordinator state and µproxy map-fetch traffic (§3.1).")
	return nil
}

// AblationAffinityPolicy contrasts mkdir switching and name hashing on
// the workload that separates them: one very large shared directory.
func AblationAffinityPolicy(w io.Writer) error {
	header(w, "Ablation: mkdir switching vs name hashing on a large directory",
		"8 processes creating files in ONE shared directory, 4 directory\n"+
			"servers. Switching binds the directory to a single site; hashing\n"+
			"spreads its entries (§3.2).")

	t := newTable("policy", "mean latency", "server utilizations")
	for _, cfg := range []struct {
		name string
		kind route.NameKind
	}{
		{"mkdir switching", route.MkdirSwitching},
		{"name hashing", route.NameHashing},
	} {
		res := sim.RunUntar(sim.UntarConfig{
			DirServers: 4, Processes: 8,
			Kind: cfg.kind, P: 0.25, SingleDirectory: true,
		})
		utils := ""
		for i, u := range res.ServerUtil {
			if i > 0 {
				utils += " "
			}
			utils += fmt.Sprintf("%.2f", u)
		}
		t.addf("%s|%.0fs|%s", cfg.name, res.MeanLatency, utils)
	}
	t.write(w)
	fmt.Fprintln(w, "\n  The tree-shaped untar of Figure 3 hides this difference; the paper")
	fmt.Fprintln(w, "  proposes name hashing precisely for directories too large for any")
	fmt.Fprintln(w, "  single server.")
	return nil
}
