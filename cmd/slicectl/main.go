// Command slicectl is the Slice client CLI. It mounts a volume — either
// from a running sliced over UDP (-connect) or from a throwaway in-process
// ensemble (the default, handy for demos) — and executes one file command:
//
//	slicectl -connect 127.0.0.1:20490 ls /
//	slicectl -connect 127.0.0.1:20490 mkdir /src
//	slicectl -connect 127.0.0.1:20490 put /src/a.txt "hello"
//	slicectl -connect 127.0.0.1:20490 get /src/a.txt
//	slicectl -connect 127.0.0.1:20490 stat /src/a.txt
//	slicectl -connect 127.0.0.1:20490 mv /src/a.txt /src/b.txt
//	slicectl -connect 127.0.0.1:20490 rm /src/b.txt
//	slicectl -connect 127.0.0.1:20490 untar /stress 500
//	slicectl -connect 127.0.0.1:20490 stats
//	slicectl -connect 127.0.0.1:20490 trace 16
//
// With -proxies N the in-process ensemble runs an N-member µproxy
// fleet; stats then shows each member under its own label plus the
// merged uproxy(fleet) aggregate. trace prints the latest sampled calls,
// one block each: every event of the call from every role's ring, in time
// order, each naming the member or server that recorded it.
//
//	slicectl -proxies 4 stats
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"

	"slice/internal/client"
	"slice/internal/ensemble"
	"slice/internal/fhandle"
	"slice/internal/netsim"
	"slice/internal/obs"
	"slice/internal/oncrpc"
	"slice/internal/rebalance"
	"slice/internal/route"
	"slice/internal/wire"
	"slice/internal/workload"
	"slice/internal/xdr"
)

func main() {
	connect := flag.String("connect", "", "address of a running sliced (empty: in-process ensemble)")
	tcp := flag.Bool("tcp", false, "dial -connect over record-marked TCP (a sliced -tcp gateway) instead of UDP")
	proxies := flag.Int("proxies", 1, "µproxy fleet size for the in-process ensemble")
	replication := flag.Int("replication", 1, "k-way storage replication for the in-process ensemble")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: slicectl [-connect addr] <ls|mkdir|put|get|stat|mv|rm|rmdir|df|untar|stats|trace|grow|shrink|rebalance-status> [args]")
		os.Exit(2)
	}

	// stats and trace talk the absorbed stats RPC program directly to the
	// virtual server; no mount, no NFS client.
	statsCmd := args[0] == "stats" || args[0] == "trace" ||
		args[0] == "grow" || args[0] == "shrink" || args[0] == "rebalance-status"

	var c *client.Client
	var rc *oncrpc.Client
	if *connect != "" {
		dial := wire.DialDatagram
		if *tcp {
			dial = wire.Dial
		}
		conn, err := dial(*connect)
		if err != nil {
			log.Fatalf("slicectl: dial: %v", err)
		}
		if statsCmd {
			rc = oncrpc.NewClient(conn, netsim.Addr{}, oncrpc.ClientConfig{})
			defer rc.Close()
		} else {
			c = client.NewWithConn(conn, client.Config{})
			if err := c.Mount(); err != nil {
				log.Fatalf("slicectl: mount: %v", err)
			}
			defer c.Close()
		}
	} else {
		e, err := ensemble.New(ensemble.Config{
			StorageNodes: 4, DirServers: 2, SmallFileServers: 2, Proxies: *proxies,
			Replication: *replication,
			Coordinator: true, NameKind: route.MkdirSwitching, MkdirP: 0.25,
		})
		if err != nil {
			log.Fatalf("slicectl: ensemble: %v", err)
		}
		defer e.Close()
		c, err = e.NewClient()
		if err != nil {
			log.Fatalf("slicectl: client: %v", err)
		}
		defer c.Close()
		if statsCmd {
			// A throwaway ensemble has nothing to report until it serves
			// traffic; drive a short untar so the demo shows real numbers.
			if _, err := workload.Untar(c, c.Root(), workload.UntarConfig{Entries: 200}); err != nil {
				log.Fatalf("slicectl: warmup untar: %v", err)
			}
			if *replication > 1 {
				// Bulk write + reads so the replica section (dirty-set
				// occupancy, read spread) has samples.
				if _, err := workload.DD(c, c.Root(), workload.DDConfig{Bytes: 1 << 20, Write: true}); err != nil {
					log.Fatalf("slicectl: warmup dd write: %v", err)
				}
				if _, err := workload.DD(c, c.Root(), workload.DDConfig{Bytes: 1 << 20, Verify: true}); err != nil {
					log.Fatalf("slicectl: warmup dd read: %v", err)
				}
			}
			port, err := e.Net.Bind(netsim.Addr{Host: ensemble.HostClient0 + 99, Port: 901})
			if err != nil {
				log.Fatalf("slicectl: bind: %v", err)
			}
			rc = oncrpc.NewClient(port, e.Virtual, oncrpc.ClientConfig{})
			defer rc.Close()
		}
	}

	var err error
	if statsCmd {
		err = runStats(rc, args)
	} else {
		err = run(c, args)
	}
	if err != nil {
		log.Fatalf("slicectl: %v", err)
	}
}

// statsCall makes one call to the absorbed stats program and returns the
// opaque JSON it carries.
func statsCall(rc *oncrpc.Client, proc, arg uint32) ([]byte, error) {
	body, err := rc.Call(obs.Program, obs.Version, proc, func(e *xdr.Encoder) {
		e.PutUint32(arg)
	})
	if err != nil {
		return nil, err
	}
	return xdr.NewDecoder(body).Opaque()
}

// runStats executes the stats and trace subcommands against a live
// ensemble's collector, over the same wire the NFS traffic uses.
func runStats(rc *oncrpc.Client, args []string) error {
	switch args[0] {
	case "stats":
		raw, err := statsCall(rc, obs.ProcSnapshot, 0)
		if err != nil {
			return fmt.Errorf("stats: %w", err)
		}
		var snap obs.ClusterSnapshot
		if err := json.Unmarshal(raw, &snap); err != nil {
			return fmt.Errorf("stats: %w", err)
		}
		for _, comp := range snap.Components {
			comp.WriteText(os.Stdout)
		}
		// With a scaled-out fleet every member reports under its own
		// label ("uproxy", "uproxy[1]", ...); append the merged
		// fleet-wide view so totals don't have to be summed by eye.
		if fleet, n := snap.MergeRole("uproxy", "uproxy(fleet)"); n > 1 {
			fleet.WriteText(os.Stdout)
		}
		printReplicaSection(snap)
		return nil

	case "grow", "shrink":
		if len(args) < 2 {
			return fmt.Errorf("%s: node count required", args[0])
		}
		n, err := strconv.Atoi(args[1])
		if err != nil || n <= 0 {
			return fmt.Errorf("%s: bad node count %q", args[0], args[1])
		}
		proc := uint32(obs.ProcGrow)
		if args[0] == "shrink" {
			proc = obs.ProcShrink
		}
		raw, err := statsCall(rc, proc, uint32(n))
		if err != nil {
			return fmt.Errorf("%s: %w", args[0], err)
		}
		fmt.Printf("%s\n", raw)
		fmt.Println("rebalance started; watch with: slicectl rebalance-status")
		return nil

	case "rebalance-status":
		raw, err := statsCall(rc, obs.ProcRebalanceStatus, 0)
		if err != nil {
			return fmt.Errorf("rebalance-status: %w", err)
		}
		var st rebalance.Status
		if err := json.Unmarshal(raw, &st); err != nil {
			return fmt.Errorf("rebalance-status: %w", err)
		}
		fmt.Printf("state %s  epoch %d  round %d  objects %d\n", st.State, st.Epoch, st.Round, st.Objects)
		fmt.Printf("chunks checked %d  repaired %d  bytes moved %d  ghosts removed %d\n",
			st.ChunksChecked, st.ChunksRepaired, st.BytesMoved, st.Ghosts)
		if st.Err != "" {
			fmt.Printf("error: %s\n", st.Err)
		}
		return nil

	case "trace":
		max := 16
		if len(args) > 1 {
			n, err := strconv.Atoi(args[1])
			if err != nil {
				return fmt.Errorf("trace: bad call count %q", args[1])
			}
			max = n
		}
		raw, err := statsCall(rc, obs.ProcTraces, uint32(max))
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		var calls []obs.Trace
		if err := json.Unmarshal(raw, &calls); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		for _, c := range calls {
			c.WriteText(os.Stdout)
		}
		return nil
	}
	return fmt.Errorf("unknown command %q", args[0])
}

// printReplicaSection renders replica health from the cluster snapshot:
// the µproxy fleet's dirty-set occupancy and pinned reads, the per-group
// read-spread balance (the replica.read[g.m] hists count spread reads per
// member slot). A replica rebirth is a rebalance transition and shows in
// rebalance-status. Silent on an unreplicated array — no replica hists
// ever record.
func printReplicaSection(snap obs.ClusterSnapshot) {
	up, _ := snap.MergeRole("uproxy", "uproxy(fleet)")

	// Per-group spread counts keyed by "replica.read[group.member]".
	groups := make(map[int]map[int]uint64)
	for name, h := range up.Hists {
		var g, m int
		if _, err := fmt.Sscanf(name, "replica.read[%d.%d]", &g, &m); err == nil {
			if groups[g] == nil {
				groups[g] = make(map[int]uint64)
			}
			groups[g][m] += h.Count()
		}
	}
	dirty := up.Hists["replica.dirty_occupancy"]
	pinned := up.Hists["replica.pinned_reads"]
	if len(groups) == 0 && dirty.Count() == 0 && pinned.Count() == 0 {
		return
	}

	fmt.Println("replica:")
	fmt.Printf("  dirty-set occupancy: samples=%d p50=%d p99=%d max=%d\n",
		dirty.Count(), dirty.Percentile(0.50), dirty.Percentile(0.99), dirty.Max())
	fmt.Printf("  pinned reads: %d\n", pinned.Count())
	gids := make([]int, 0, len(groups))
	for g := range groups {
		gids = append(gids, g)
	}
	sort.Ints(gids)
	for _, g := range gids {
		members := groups[g]
		mids := make([]int, 0, len(members))
		for m := range members {
			mids = append(mids, m)
		}
		sort.Ints(mids)
		var parts []string
		min, max := uint64(0), uint64(0)
		for i, m := range mids {
			n := members[m]
			parts = append(parts, fmt.Sprintf("m%d=%d", m, n))
			if i == 0 || n < min {
				min = n
			}
			if n > max {
				max = n
			}
		}
		balance := 1.0
		if max > 0 {
			balance = float64(min) / float64(max)
		}
		fmt.Printf("  group %d read spread: %s balance=%.2f\n", g, strings.Join(parts, " "), balance)
	}
}

// resolve walks an absolute path to a handle.
func resolve(c *client.Client, path string) (fhandle.Handle, error) {
	cur := c.Root()
	for _, part := range splitPath(path) {
		fh, _, err := c.Lookup(cur, part)
		if err != nil {
			return fhandle.Handle{}, fmt.Errorf("%s: %w", part, err)
		}
		cur = fh
	}
	return cur, nil
}

// resolveParent returns the handle of the path's directory and the final
// name component.
func resolveParent(c *client.Client, path string) (fhandle.Handle, string, error) {
	parts := splitPath(path)
	if len(parts) == 0 {
		return fhandle.Handle{}, "", fmt.Errorf("path %q has no final component", path)
	}
	dir := c.Root()
	for _, part := range parts[:len(parts)-1] {
		fh, _, err := c.Lookup(dir, part)
		if err != nil {
			return fhandle.Handle{}, "", fmt.Errorf("%s: %w", part, err)
		}
		dir = fh
	}
	return dir, parts[len(parts)-1], nil
}

func splitPath(path string) []string {
	var out []string
	for _, p := range strings.Split(path, "/") {
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

func run(c *client.Client, args []string) error {
	cmd := args[0]
	need := func(n int) error {
		if len(args) < n+1 {
			return fmt.Errorf("%s: missing arguments", cmd)
		}
		return nil
	}
	switch cmd {
	case "ls":
		if err := need(1); err != nil {
			return err
		}
		dir, err := resolve(c, args[1])
		if err != nil {
			return err
		}
		ents, err := c.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range ents {
			fmt.Println(e.Name)
		}
		return nil

	case "mkdir":
		if err := need(1); err != nil {
			return err
		}
		dir, name, err := resolveParent(c, args[1])
		if err != nil {
			return err
		}
		_, _, err = c.Mkdir(dir, name, 0o755)
		return err

	case "put":
		if err := need(2); err != nil {
			return err
		}
		dir, name, err := resolveParent(c, args[1])
		if err != nil {
			return err
		}
		fh, _, err := c.Create(dir, name, 0o644, false)
		if err != nil {
			return err
		}
		return c.WriteFile(fh, []byte(args[2]))

	case "get":
		if err := need(1); err != nil {
			return err
		}
		fh, err := resolve(c, args[1])
		if err != nil {
			return err
		}
		data, err := c.ReadAll(fh)
		if err != nil {
			return err
		}
		os.Stdout.Write(data)
		fmt.Println()
		return nil

	case "stat":
		if err := need(1); err != nil {
			return err
		}
		fh, err := resolve(c, args[1])
		if err != nil {
			return err
		}
		at, err := c.GetAttr(fh)
		if err != nil {
			return err
		}
		fmt.Printf("type %v mode %o nlink %d size %d used %d fileid %d site %d\n",
			at.Type, at.Mode, at.Nlink, at.Size, at.Used, at.FileID, fh.Site)
		return nil

	case "mv":
		if err := need(2); err != nil {
			return err
		}
		fromDir, fromName, err := resolveParent(c, args[1])
		if err != nil {
			return err
		}
		toDir, toName, err := resolveParent(c, args[2])
		if err != nil {
			return err
		}
		return c.Rename(fromDir, fromName, toDir, toName)

	case "rm":
		if err := need(1); err != nil {
			return err
		}
		dir, name, err := resolveParent(c, args[1])
		if err != nil {
			return err
		}
		return c.Remove(dir, name)

	case "rmdir":
		if err := need(1); err != nil {
			return err
		}
		dir, name, err := resolveParent(c, args[1])
		if err != nil {
			return err
		}
		return c.Rmdir(dir, name)

	case "df":
		res, err := c.FsStat(c.Root())
		if err != nil {
			return err
		}
		fmt.Printf("bytes: %d total, %d free; files: %d total, %d free\n",
			res.TotalBytes, res.FreeBytes, res.TotalFiles, res.FreeFiles)
		return nil

	case "untar":
		if err := need(2); err != nil {
			return err
		}
		entries, err := strconv.Atoi(args[2])
		if err != nil {
			return fmt.Errorf("untar: bad entry count %q", args[2])
		}
		dir, name, err := resolveParent(c, args[1])
		if err != nil {
			return err
		}
		_ = dir
		st, err := workload.Untar(c, c.Root(), workload.UntarConfig{
			Entries: entries, Prefix: name,
		})
		if err != nil {
			return err
		}
		fmt.Printf("untar: %d dirs, %d files, %d NFS ops\n", st.Dirs, st.Files, st.NFSOps)
		return nil

	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}
