package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smokeSeconds keeps one timed phase short enough that all four
// workloads, both ways, and the ledger run in a few seconds.
const smokeSeconds = 0.16

func smokeConfig(t *testing.T, seed uint64, seconds float64) runConfig {
	return runConfig{seed: seed, seconds: seconds, scale: 0.005, outDir: t.TempDir()}
}

// TestSmoke runs every workload both ways at a tiny scale and checks that
// every metric BENCHMARK.json names is reported, finite and non-negative,
// that no op failed and every output verified, that the traced pass left
// a parent-linked trace, and that wire did work on sfsmix only.
func TestSmoke(t *testing.T) {
	cfg := smokeConfig(t, 1, smokeSeconds)
	out := cfg.outDir
	ledger, err := runLedger(ledgerBudget(smokeSeconds))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		e2e, err := measureEndToEnd(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		layers, err := measurePerLayer(w, cfg, ledger)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range []*outcome{e2e, layers} {
			if !o.correct() {
				t.Errorf("%s: %d of %d ops failed (first: %v), violations %v", w.name, o.failed, o.attempted, o.firstErr, o.violations)
			}
			for _, d := range o.defs {
				v, ok := o.values[d.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: metric %s = %v (present %v)", w.name, d.Name, v, ok)
				}
				if d.Unit == "" || (d.Better != "higher" && d.Better != "lower") {
					t.Errorf("metric %s: unit %q, better %q", d.Name, d.Unit, d.Better)
				}
			}
		}
		for _, d := range endToEnd {
			// With fewer than a few ops per slice (1 MiB ops under the
			// race detector) a median over slices can be 0.
			if e2e.values[d.Name] <= 0 && e2e.attempted >= 10*numWindows {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, e2e.values[d.Name])
			}
		}
		if recs := layers.values["wire.records_per_op"]; (recs > 0) != w.tcp {
			t.Errorf("%s: wire.records_per_op = %v, but tcp = %v", w.name, recs, w.tcp)
		}
		checkTrace(t, filepath.Join(out, "trace-"+w.name+".json"))
	}
}

// checkTrace asserts the trace file holds client.op roots and client.rpc
// children whose parent is a recorded root (or 0 for the rare RPC sent
// outside any op).
func checkTrace(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	roots := map[uint64]bool{}
	for _, s := range tf.Spans {
		if s.Name == "client.op" {
			roots[s.ID] = true
		}
	}
	rpcs := 0
	for _, s := range tf.Spans {
		if s.End < s.Start {
			t.Errorf("%s: span %d ends before it starts", path, s.ID)
		}
		if s.Name != "client.rpc" {
			continue
		}
		rpcs++
		if s.Parent != 0 && !roots[s.Parent] {
			t.Errorf("%s: rpc span %d has unrecorded parent %d", path, s.ID, s.Parent)
		}
	}
	if len(roots) == 0 || rpcs == 0 {
		t.Errorf("%s: %d op spans, %d rpc spans", path, len(roots), rpcs)
	}
	if len(tf.Before) == 0 || len(tf.After) == 0 {
		t.Errorf("%s: counters missing at a boundary", path)
	}
}

// TestSeedDeterminism: the same seed generates the same op sequence, a
// different seed another one.
func TestSeedDeterminism(t *testing.T) {
	hash := func(w *workloadSpec, seed uint64) uint64 {
		p, err := runPass(w, smokeConfig(t, seed, 0), smokeSeconds/4, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		return p.seqHash
	}
	for _, w := range workloads {
		a, b, c := hash(w, 7), hash(w, 7), hash(w, 8)
		if a != b {
			t.Errorf("%s: seed 7 gave op-sequence hashes %x and %x", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same op-sequence hash %x", w.name, a)
		}
	}
}

// TestContractMatchesProgram: BENCHMARK.json names exactly the workloads
// and metrics the program reports, with the same units and bounds.
func TestContractMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var contract struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metricDef                  `json:"end_to_end"`
		PerLayer  []metricDef                  `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&contract); err != nil {
		t.Fatal(err)
	}
	if len(contract.Workloads) != len(workloads) {
		t.Fatalf("contract has %d workloads, program %d", len(contract.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c := contract.Workloads[i]; c.Name != w.name || c.Why != w.why || strings.Contains(c.Why, "\n") {
			t.Errorf("workload %d: contract {%s, %q}, program {%s, %q}", i, c.Name, c.Why, w.name, w.why)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: contract has %d metrics, program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: contract %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", contract.EndToEnd, endToEnd)
	same("per_layer", contract.PerLayer, perLayer)
}

// TestCompare: the verdicts of -compare on hand-made result files.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, opsPerS []float64, failed float64) string {
		rf := resultsFile{EndToEnd: endToEnd, Results: map[string]map[string]*samples{}}
		for _, w := range workloads {
			row := map[string]*samples{"failed_share": {Unit: "ratio", Values: []float64{failed}, Median: failed}}
			for _, d := range endToEnd {
				row[d.Name] = &samples{Unit: d.Unit, Values: []float64{100}, Median: 100}
			}
			row["ops_per_s"] = &samples{Unit: "ops/s", Values: opsPerS, Median: median(opsPerS)}
			rf.Results[w.name] = row
		}
		data, err := json.Marshal(rf)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", []float64{100, 101, 99}, 0)
	for _, tc := range []struct {
		name    string
		path    string
		verdict string
		fails   bool
	}{
		{"same", write("same.json", []float64{100, 102, 98}, 0), " ok;", false},
		{"slower", write("slow.json", []float64{60, 61, 59}, 0), "regressed", true},
		{"faster", write("fast.json", []float64{150, 151, 149}, 0), "improved", false},
		{"noisy", write("noisy.json", []float64{60, 100, 140}, 0), "unresolved", false},
		{"failing", write("fail.json", []float64{100, 101, 99}, 0.01), "failed_share 0→0.01 regressed", true},
	} {
		var buf bytes.Buffer
		err := compareFiles(&buf, base, tc.path)
		if (err != nil) != tc.fails {
			t.Errorf("%s: err = %v, want failure %v", tc.name, err, tc.fails)
		}
		if !strings.Contains(buf.String(), tc.verdict) {
			t.Errorf("%s: output lacks %q:\n%s", tc.name, tc.verdict, buf.String())
		}
	}
}
