// Command slicebench regenerates the tables and figures of the paper's
// evaluation. Run with -exp all for the full report, or name a single
// experiment:
//
//	slicebench -exp table2     # bulk I/O bandwidth
//	slicebench -exp table3     # µproxy CPU cost per stage (live)
//	slicebench -exp fig3       # directory service scaling
//	slicebench -exp fig4       # mkdir-switching affinity sweep
//	slicebench -exp fig5       # SPECsfs97 delivered throughput
//	slicebench -exp fig6       # SPECsfs97 latency
//	slicebench -exp ablation-hash | ablation-threshold |
//	           ablation-placement | ablation-affinity-policy
//
// These are the paper's model-driven shapes. Measured end-to-end and
// per-layer figures of the live stack come from benchmark/ (`bash
// benchmark/run.sh`), and the fleet's division of load from
// TestFleetDividesLoad (`go test -run FleetDividesLoad .`).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"slice/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: "+
		strings.Join(append([]string{"all"}, bench.Experiments...), ", "))
	flag.Parse()
	if err := bench.Run(*exp, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "slicebench:", err)
		os.Exit(1)
	}
}
