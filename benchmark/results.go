package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// resultsFile is what a full run writes to out/results.json and what
// -compare reads. BENCHMARK.json itself holds only the contract (command,
// workloads, metrics, bounds); measured numbers live here.
type resultsFile struct {
	Environment environment                    `json:"environment"`
	EndToEnd    []metricDef                    `json:"end_to_end"`
	Claim       *string                        `json:"claim"` // this benchmark's defining change claims no gain
	Results     map[string]map[string]*samples `json:"results"`
}

type environment struct {
	Commit     string                 `json:"commit"`
	GoVersion  string                 `json:"go_version"`
	NumCPU     int                    `json:"nproc"`
	GoMaxProcs int                    `json:"gomaxprocs"`
	Lanes      int                    `json:"lanes"`
	Seed       uint64                 `json:"seed"`
	Seconds    float64                `json:"seconds"`
	Scale      float64                `json:"scale"`
	Repeat     int                    `json:"repeat"`
	Workloads  map[string]workloadEnv `json:"workloads"`
	Notes      []string               `json:"notes"`
}

type workloadEnv struct {
	TimedSeconds []float64 `json:"timed_phase_seconds"`
	Samples      []int     `json:"latency_samples"`
	SeqHash      string    `json:"op_sequence_hash"`
}

// samples is one metric on one workload: a value per repeat.
type samples struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
}

// runAll runs every workload both ways, repeat times each, prints every
// number and writes out/results.json.
func runAll(cfg runConfig, repeat int) error {
	seed, seconds, outDir := cfg.seed, cfg.seconds, cfg.outDir
	ledger, err := runLedger(ledgerBudget(seconds))
	if err != nil {
		return err
	}
	rf := &resultsFile{
		EndToEnd: endToEnd,
		Results:  map[string]map[string]*samples{},
		Environment: environment{
			Commit: gitCommit(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
			GoMaxProcs: runtime.GOMAXPROCS(0), Lanes: numLanes, Seed: seed, Seconds: seconds, Scale: cfg.scale, Repeat: repeat,
			Workloads: map[string]workloadEnv{},
			Notes: []string{
				"unpaced: no Net.Latency and no *ServiceTime anywhere in the ensemble config",
				"sfsmix runs over loopback TCP, not a real link",
				"every WAL figure is over an in-memory wal.MemStore: no device flush",
				"per-layer metrics come from a traced pass of half the length, after an untraced pass of the same half length",
			},
		},
	}
	incorrect := 0
	for _, w := range workloads {
		row := map[string]*samples{}
		rf.Results[w.name] = row
		var env workloadEnv
		record := func(o *outcome) {
			report(w, o)
			for _, d := range o.defs {
				s := row[d.Name]
				if s == nil {
					s = &samples{Unit: d.Unit}
					row[d.Name] = s
				}
				s.Values = append(s.Values, o.values[d.Name])
			}
			if !o.correct() {
				incorrect++
			}
		}
		for r := 0; r < repeat; r++ {
			e2e, err := measureEndToEnd(w, cfg)
			if err != nil {
				return err
			}
			e2e.defs = append(e2e.defs[:len(e2e.defs):len(e2e.defs)], metricDef{Name: "failed_share", Unit: "ratio", Better: "lower"})
			e2e.values["failed_share"] = float64(e2e.failed) / float64(e2e.attempted)
			record(e2e)
			env.TimedSeconds = append(env.TimedSeconds, e2e.timedS)
			env.Samples = append(env.Samples, e2e.samples)
			env.SeqHash = fmt.Sprintf("%016x", e2e.seqHash)
			layers, err := measurePerLayer(w, cfg, ledger)
			if err != nil {
				return err
			}
			record(layers)
		}
		for _, s := range row {
			s.Median = median(s.Values)
		}
		rf.Environment.Workloads[w.name] = env
	}
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, "results.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	if incorrect > 0 {
		return fmt.Errorf("%d runs had failed ops or output violations", incorrect)
	}
	return nil
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// iqrShare is the distance between the first and third quartile of v as
// a share of its median — quartiles as Python's statistics.quantiles(v,
// n=4) gives them, which is what the PR driver computes. Fewer than two
// values have no spread.
func iqrShare(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		d := float64(i*(n+1) - j*4)
		if j < 1 {
			j, d = 1, 0
		} else if j > n-1 {
			j, d = n-1, 4
		}
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	return ratio(q(3)-q(1), median(s))
}

// compareFiles applies each end-to-end metric's bound to two result
// files, one workload per row. A metric is unresolved when either side's
// own run-to-run spread exceeds the bound; it regressed when the new
// median is worse than the old by more than the bound, improved when it
// is better by more than the bound. Any regression, and any rise in
// failed_share, is an error.
func compareFiles(w io.Writer, oldPath, newPath string) error {
	load := func(path string) (*resultsFile, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rf resultsFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &rf, nil
	}
	base, err := load(oldPath)
	if err != nil {
		return err
	}
	cur, err := load(newPath)
	if err != nil {
		return err
	}
	regressed := 0
	for _, wl := range workloads {
		b, c := base.Results[wl.name], cur.Results[wl.name]
		if b == nil || c == nil {
			fmt.Fprintf(w, "%-8s missing from one file\n", wl.name)
			regressed++
			continue
		}
		fmt.Fprintf(w, "%-8s", wl.name)
		for _, d := range base.EndToEnd {
			bs, cs := b[d.Name], c[d.Name]
			if bs == nil || cs == nil || bs.Median == 0 {
				fmt.Fprintf(w, "  %s missing", d.Name)
				regressed++
				continue
			}
			worse := cs.Median/bs.Median - 1 // share by which the metric got worse
			if d.Better == "higher" {
				worse = 1 - cs.Median/bs.Median
			}
			verdict := "ok"
			switch {
			case iqrShare(bs.Values) > d.Bound || iqrShare(cs.Values) > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "regressed"
				regressed++
			case worse < -d.Bound:
				verdict = "improved"
			}
			fmt.Fprintf(w, "  %s %.6g→%.6g %s (%+.1f%%, bound %.0f%%) %s;",
				d.Name, bs.Median, cs.Median, d.Unit, 100*(cs.Median/bs.Median-1), 100*d.Bound, verdict)
		}
		bf, cf := b["failed_share"], c["failed_share"]
		if bf != nil && cf != nil {
			verdict := "ok"
			if cf.Median > bf.Median {
				verdict = "regressed"
				regressed++
			}
			fmt.Fprintf(w, "  failed_share %.6g→%.6g %s", bf.Median, cf.Median, verdict)
		}
		fmt.Fprintln(w)
	}
	if regressed > 0 {
		return fmt.Errorf("%d regressions", regressed)
	}
	return nil
}
