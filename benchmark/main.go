// Command benchmark is the repository's one unpaced end-to-end and
// per-layer benchmark: four seeded closed-loop workloads (untar, sfsmix,
// ddwrite, ddread) driven through the public client API against the
// stock in-process ensemble, an untraced pass for the end-to-end
// metrics, a traced pass plus a micro-ledger for the per-layer ones.
// See README.md; BENCHMARK.json at the repository root is its contract.
//
//	benchmark --workload untar --seed 1 --seconds 20 --trace 0   one pass, result as a JSON last line
//	benchmark [-seconds 20] [-repeat 3]                          every workload, both passes → out/results.json
//	benchmark -compare old.json new.json                         apply the bounds to two result files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one pass of this workload and print the result as a JSON last line (default: all workloads, both passes)")
		seed     = flag.Uint64("seed", 1, "workload seed: the same seed generates the same ops")
		seconds  = flag.Float64("seconds", 20, "length of one timed phase")
		trace    = flag.Int("trace", 0, "with -workload: 0 = untraced pass, end-to-end metrics; 1 = traced pass and ledger, per-layer metrics")
		repeat   = flag.Int("repeat", 1, "without -workload: how many times to run each workload (repeats give -compare a spread)")
		out      = flag.String("out", "out", "directory for trace-<workload>.json and results.json")
		scale    = flag.Float64("scale", 1, "shrink prefill, warm-up and set-up repeats; exists for the smoke test, BENCHMARK.json pins 1")
		compare  = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
	)
	flag.Parse()
	cfg := runConfig{seed: *seed, seconds: *seconds, scale: *scale, outDir: *out}
	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("usage: benchmark -compare old.json new.json")
		} else {
			err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
	case *workload != "":
		err = runOne(*workload, cfg, *trace == 1)
	default:
		err = runAll(cfg, *repeat)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// measured is one metric's value as the contract's result line carries it.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a single pass prints as its last line.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// outcome is one workload measured one way: the end-to-end metrics of an
// untraced pass, or the per-layer metrics of a traced pass.
type outcome struct {
	defs       []metricDef
	values     map[string]float64
	attempted  int
	failed     int
	violations []string
	firstErr   error
	timedS     float64
	samples    int
	seqHash    uint64
}

func (o *outcome) correct() bool { return o.failed == 0 && len(o.violations) == 0 }

func (o *outcome) absorb(p *passResult) {
	o.attempted += p.attempted
	o.failed += p.failed
	o.violations = append(o.violations, p.violations...)
	if o.firstErr == nil {
		o.firstErr = p.firstErr
	}
	o.timedS += p.timedS
	o.samples += len(p.lat)
	o.seqHash = p.seqHash
}

// ledgerBudget scales the time spent per ledger loop with the pass
// length: 50 ms per loop on a 20 s pass, so the ledger's ~25 loops of
// three runs add about five seconds, and a smoke test's stay in
// milliseconds.
func ledgerBudget(seconds float64) time.Duration {
	return time.Duration(seconds / 400 * float64(time.Second))
}

// measureEndToEnd runs one untraced pass of the full length.
func measureEndToEnd(w *workloadSpec, cfg runConfig) (*outcome, error) {
	p, err := runPass(w, cfg, cfg.seconds, setupRepeats, false)
	if err != nil {
		return nil, err
	}
	o := &outcome{defs: endToEnd, values: endToEndValues(p)}
	o.absorb(p)
	return o, nil
}

// measurePerLayer splits the time between an untraced and a traced pass
// of equal length — their ops_per_s difference is the tracing overhead —
// and joins the traced pass's numbers with the ledger's.
func measurePerLayer(w *workloadSpec, cfg runConfig, ledger map[string]float64) (*outcome, error) {
	u, err := runPass(w, cfg, cfg.seconds/2, 1, false)
	if err != nil {
		return nil, err
	}
	t, err := runPass(w, cfg, cfg.seconds/2, 1, true)
	if err != nil {
		return nil, err
	}
	o := &outcome{defs: perLayer, values: perLayerValues(u, t, ledger)}
	o.absorb(u)
	o.absorb(t)
	return o, nil
}

// report prints one "workload metric value unit" line per metric, then
// what failed, if anything.
func report(w *workloadSpec, o *outcome) {
	for _, d := range o.defs {
		fmt.Printf("%s %s %.6g %s\n", w.name, d.Name, o.values[d.Name], d.Unit)
	}
	if f, ok := o.values["host_factor"]; ok {
		fmt.Printf("%s raw_ops_per_s %.6g ops/s (unscaled; host_factor %.4g = reference kernel time ÷ %.0f ms)\n",
			w.name, o.values["raw_ops_per_s"], f, refKernelSeconds*1e3)
	}
	fmt.Printf("%s failed_share %.6g ratio (%d of %d ops; %d samples over %.2f s timed; op-sequence hash %016x)\n",
		w.name, float64(o.failed)/float64(o.attempted), o.failed, o.attempted, o.samples, o.timedS, o.seqHash)
	if o.firstErr != nil {
		fmt.Printf("%s first failed op: %v\n", w.name, o.firstErr)
	}
	for i, v := range o.violations {
		if i == 10 {
			fmt.Printf("%s ... %d more violations\n", w.name, len(o.violations)-i)
			break
		}
		fmt.Printf("%s violation: %s\n", w.name, v)
	}
	if r := o.values["ensemble.ledger_residual_share"]; r > 0.35 || r < -0.35 {
		fmt.Printf("%s finding: the ledger explains %.0f%% of measured CPU per op (residual %.0f%%)\n", w.name, 100*(1-r), 100*r)
	}
}

// runOne is the contract's entry point: one workload, one way, the
// result as the last line of standard output.
func runOne(name string, cfg runConfig, traced bool) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	var o *outcome
	var err error
	if traced {
		var ledger map[string]float64
		if ledger, err = runLedger(ledgerBudget(cfg.seconds)); err == nil {
			o, err = measurePerLayer(w, cfg, ledger)
		}
	} else {
		o, err = measureEndToEnd(w, cfg)
	}
	if err != nil {
		return err
	}
	report(w, o)
	res := result{Correct: o.correct(), Attempted: o.attempted, Failed: o.failed, Metrics: map[string]measured{}}
	for _, d := range o.defs {
		res.Metrics[d.Name] = measured{Value: o.values[d.Name], Unit: d.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d ops failed, %d output violations", name, o.failed, o.attempted, len(o.violations))
	}
	return nil
}
