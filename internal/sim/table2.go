package sim

import (
	"slice/internal/fhandle"
	"slice/internal/netsim"
	"slice/internal/replica"
	"slice/internal/route"
)

// BulkConfig parameterizes the Table 2 experiment: sequential dd-style
// I/O on large files through the striping policy, mirrored or not.
type BulkConfig struct {
	StorageNodes int
	Clients      int
	Write        bool
	Mirrored     bool
	// Tuned selects the saturation-column client model (the client NFS
	// stack is not the bottleneck in those runs).
	Tuned bool
	// BytesPerClient is the per-client transfer (the paper used 1.25 GB;
	// a scaled transfer reaches steady state much sooner).
	BytesPerClient int64
	// BlockSize is the NFS transfer size (32 KB mount option in §5).
	BlockSize int
	// Window is the number of outstanding requests (read-ahead depth 4).
	Window int
}

func (c *BulkConfig) defaults() {
	if c.StorageNodes <= 0 {
		c.StorageNodes = 8
	}
	if c.Clients <= 0 {
		c.Clients = 1
	}
	if c.BytesPerClient <= 0 {
		c.BytesPerClient = 160 << 20
	}
	if c.BlockSize <= 0 {
		c.BlockSize = 32 * 1024
	}
	if c.Window <= 0 {
		c.Window = 4
	}
}

// BulkResult reports achieved bandwidth.
type BulkResult struct {
	AggregateMBps float64
	PerClientMBps float64
	NodeUtilMax   float64
	ClientUtilMax float64
}

// RunBulk simulates the bulk-I/O pipeline: each client keeps Window
// 32KB transfers outstanding against the striped file; blocks route to
// storage nodes through route.IOPolicy exactly as the µproxy routes them.
// Mirroring is the live stack's k = 2 replica-group policy: the table
// routes to group primaries, writes fan out to both members, and each
// read goes to one member picked from the stripe — the choice the
// µproxy's spreadRead makes for a clean object. Bandwidth is emergent from the queueing between
// client CPUs and storage-node streams.
func RunBulk(cfg BulkConfig) BulkResult {
	cfg.defaults()
	eng := NewEngine()

	// Stations.
	nodes := make([]*Station, cfg.StorageNodes)
	var addrs []netsim.Addr
	for i := range nodes {
		nodes[i] = NewStation(eng, "storage", 1)
		addrs = append(addrs, netsim.Addr{Host: uint32(10 + i), Port: 2049})
	}
	clients := make([]*Station, cfg.Clients)
	for i := range clients {
		clients[i] = NewStation(eng, "client", 1)
	}
	policy := route.NewIOPolicy(nil, route.NewTable(cfg.StorageNodes, addrs))
	policy.StripeUnit = uint64(cfg.BlockSize)
	if cfg.Mirrored {
		policy.Replicas = replica.NewMap(2, addrs)
		var primaries []netsim.Addr
		for _, g := range policy.Replicas.Groups() {
			primaries = append(primaries, g.Members[0])
		}
		policy.Storage = route.NewTable(cfg.StorageNodes, primaries)
	}

	// Per-byte costs.
	var clientPB, nodePB float64
	switch {
	case cfg.Tuned:
		clientPB = TunedClientPerByte
	case cfg.Write && cfg.Mirrored:
		clientPB = ClientMirrorWritePerByte
	case cfg.Write:
		clientPB = ClientWritePerByte
	case cfg.Mirrored:
		clientPB = ClientMirrorReadPerByte
	default:
		clientPB = ClientReadPerByte
	}
	if cfg.Write {
		nodePB = 1 / NodeSinkBW
	} else {
		nodePB = 1 / NodeSourceBW
		if cfg.Mirrored {
			nodePB /= MirrorReadSourceEff
		}
	}

	nodeIndex := make(map[netsim.Addr]int, len(addrs))
	for i, a := range addrs {
		nodeIndex[a] = i
	}

	blocksPerClient := int(cfg.BytesPerClient / int64(cfg.BlockSize))
	remaining := cfg.Clients
	var lastDone float64

	for c := 0; c < cfg.Clients; c++ {
		c := c
		fh := fhandle.Handle{Volume: 1, FileID: uint64(1000 + c), Type: 1, Gen: 1}
		next := 0
		inflight := 0
		var issue func()
		finishOne := func() {
			inflight--
			if next < blocksPerClient {
				issue()
			} else if inflight == 0 {
				remaining--
				if remaining == 0 {
					lastDone = eng.Now()
				}
			}
		}
		issue = func() {
			stripe := uint64(next)
			next++
			inflight++
			clientCost := float64(cfg.BlockSize) * clientPB
			nodeCost := float64(cfg.BlockSize) * nodePB
			clients[c].Visit(clientCost, func() {
				if cfg.Write {
					targets, err := policy.WriteTargets(fh, stripe)
					if err != nil {
						finishOne()
						return
					}
					// Replicated writes fan out; the op completes when
					// every member has absorbed the block.
					pendingReplicas := len(targets)
					for _, tgt := range targets {
						nodes[nodeIndex[tgt]].Visit(nodeCost, func() {
							pendingReplicas--
							if pendingReplicas == 0 {
								finishOne()
							}
						})
					}
				} else {
					tgt, err := policy.ReadTarget(fh, stripe)
					if err != nil {
						finishOne()
						return
					}
					if g, ok := policy.Replicas.GroupOf(tgt); ok {
						// A multiplicative hash: stripe%2 would advance in
						// step with the striping itself and leave every
						// group's second member idle.
						tgt = g.Members[(stripe*0x9E3779B97F4A7C15)>>32%uint64(len(g.Members))]
					}
					nodes[nodeIndex[tgt]].Visit(nodeCost, finishOne)
				}
			})
		}
		for i := 0; i < cfg.Window && next < blocksPerClient; i++ {
			issue()
		}
	}

	eng.Run(0)
	elapsed := lastDone
	if elapsed <= 0 {
		elapsed = eng.Now()
	}
	total := float64(cfg.Clients) * float64(blocksPerClient) * float64(cfg.BlockSize)
	res := BulkResult{
		AggregateMBps: total / elapsed / 1e6,
		PerClientMBps: total / elapsed / 1e6 / float64(cfg.Clients),
	}
	for _, n := range nodes {
		if u := n.Utilization(); u > res.NodeUtilMax {
			res.NodeUtilMax = u
		}
	}
	for _, c := range clients {
		if u := c.Utilization(); u > res.ClientUtilMax {
			res.ClientUtilMax = u
		}
	}
	return res
}
