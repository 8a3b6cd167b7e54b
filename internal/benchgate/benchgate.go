// Package benchgate compares `go test -bench` output against the
// checked-in baseline (BENCH_proxy.json) and fails on regression: it is
// the CI gate that keeps the µproxy data path within its performance
// budget. Allocation counts are held exactly — the steady-state forward
// path earned 0 allocs/op and may not lose it — while ns/op gets a
// tolerance factor for machine-to-machine noise.
package benchgate

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Sample is one benchmark line's metrics.
type Sample struct {
	NsOp     float64
	BOp      float64
	AllocsOp float64
}

// Metrics is one baseline entry: per-CPU-count expected numbers.
type Metrics struct {
	NsOp     float64 `json:"ns_op"`
	BOp      float64 `json:"b_op"`
	AllocsOp float64 `json:"allocs_op"`
}

// RatioRule gates a scaling property between two benchmarks of one gate
// run: Scaled must be at least MinSpeedup times faster (ns/op) than Base
// at the given CPU count. Both sides are measured on the same machine,
// each pass of the run sampling both once (make bench-gate), so their
// minima come from the same stretch of host load and — unlike the
// absolute ns/op gates — the ratio needs no machine-noise tolerance and
// holds the speedup itself.
type RatioRule struct {
	Base       string  `json:"base"`
	Scaled     string  `json:"scaled"`
	CPU        string  `json:"cpu"`
	MinSpeedup float64 `json:"min_speedup"`
}

// Baseline is the BENCH_proxy.json schema; only "current" and "ratios"
// gate.
type Baseline struct {
	Current map[string]map[string]Metrics `json:"current"`
	Ratios  []RatioRule                   `json:"ratios"`
}

// ParseBaseline decodes a BENCH_proxy.json.
func ParseBaseline(data []byte) (*Baseline, error) {
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("benchgate: baseline: %w", err)
	}
	if len(b.Current) == 0 {
		return nil, fmt.Errorf("benchgate: baseline has no \"current\" section")
	}
	return &b, nil
}

var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-(\d+))?\s+\d+\s+([\d.]+) ns/op(?:\s+(.*))?$`)

// ParseBench reads `go test -bench -benchmem` output and groups samples
// by benchmark name and CPU count ("cpu1", "cpu4", ... — go appends a
// -N suffix for GOMAXPROCS=N>1). Repeated runs (-count=N) accumulate.
// Sub-benchmark names keep their slash-separated path.
func ParseBench(r io.Reader) (map[string]map[string][]Sample, error) {
	out := make(map[string]map[string][]Sample)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		name, cpu := m[1], "cpu1"
		if m[2] != "" {
			cpu = "cpu" + m[2]
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		s := Sample{NsOp: ns}
		for _, field := range strings.Split(m[4], "\t") {
			field = strings.TrimSpace(field)
			switch {
			case strings.HasSuffix(field, " B/op"):
				s.BOp, _ = strconv.ParseFloat(strings.TrimSuffix(field, " B/op"), 64)
			case strings.HasSuffix(field, " allocs/op"):
				s.AllocsOp, _ = strconv.ParseFloat(strings.TrimSuffix(field, " allocs/op"), 64)
			}
		}
		if out[name] == nil {
			out[name] = make(map[string][]Sample)
		}
		out[name][cpu] = append(out[name][cpu], s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("benchgate: no benchmark lines in input")
	}
	return out, nil
}

// best reduces repeated runs to their least-noisy representative: the
// minimum of each metric. Benchmarks only get slower under load, so the
// minimum across -count runs is the machine's honest capability; for
// allocations the minimum discards warm-up artifacts (pool fills) that
// only the first run pays.
func best(samples []Sample) Sample {
	b := samples[0]
	for _, s := range samples[1:] {
		if s.NsOp < b.NsOp {
			b.NsOp = s.NsOp
		}
		if s.BOp < b.BOp {
			b.BOp = s.BOp
		}
		if s.AllocsOp < b.AllocsOp {
			b.AllocsOp = s.AllocsOp
		}
	}
	return b
}

// Config tunes the gate.
type Config struct {
	// Tolerance multiplies the baseline ns/op: measured > baseline×Tolerance
	// fails. CI machines differ from the baseline machine, so this is
	// deliberately loose; allocation regressions are what the gate holds
	// exactly.
	Tolerance float64
	// BOpSlack is the absolute B/op headroom on top of the baseline.
	// Parallel benchmarks amortize per-lane setup over the measured
	// iterations, so short runs report spurious tens of B/op at
	// 0 allocs/op; the slack absorbs that while still catching
	// buffer-copy regressions (hundreds of B/op). Per-op allocation
	// regressions always surface in allocs/op, which is gated exactly.
	BOpSlack float64
}

// Check compares parsed results against the baseline and writes a
// verdict table to w. It returns an error listing every regression; nil
// means every gated benchmark is within budget.
func Check(w io.Writer, base *Baseline, results map[string]map[string][]Sample, cfg Config) error {
	if cfg.Tolerance <= 0 {
		cfg.Tolerance = 2.5
	}
	if cfg.BOpSlack <= 0 {
		cfg.BOpSlack = 128
	}
	names := make([]string, 0, len(base.Current))
	for name := range base.Current {
		names = append(names, name)
	}
	sort.Strings(names)

	var failures []string
	fmt.Fprintf(w, "%-34s %-5s %12s %12s %10s %8s  verdict\n",
		"benchmark", "cpu", "ns/op", "base ns/op", "B/op", "allocs")
	for _, name := range names {
		cpus := make([]string, 0, len(base.Current[name]))
		for cpu := range base.Current[name] {
			cpus = append(cpus, cpu)
		}
		sort.Strings(cpus)
		for _, cpu := range cpus {
			want := base.Current[name][cpu]
			samples := results[name][cpu]
			if len(samples) == 0 {
				failures = append(failures, fmt.Sprintf("%s/%s: not measured", name, cpu))
				fmt.Fprintf(w, "%-34s %-5s %12s %12.0f %10s %8s  MISSING\n",
					name, cpu, "-", want.NsOp, "-", "-")
				continue
			}
			got := best(samples)
			var bad []string
			if got.AllocsOp > want.AllocsOp {
				bad = append(bad, fmt.Sprintf("allocs/op %.0f > %.0f", got.AllocsOp, want.AllocsOp))
			}
			if got.NsOp > want.NsOp*cfg.Tolerance {
				bad = append(bad, fmt.Sprintf("ns/op %.0f > %.0f×%.1f", got.NsOp, want.NsOp, cfg.Tolerance))
			}
			if got.BOp > want.BOp*cfg.Tolerance+cfg.BOpSlack {
				bad = append(bad, fmt.Sprintf("B/op %.0f > %.0f×%.1f+%.0f", got.BOp, want.BOp, cfg.Tolerance, cfg.BOpSlack))
			}
			verdict := "ok"
			if len(bad) > 0 {
				verdict = "FAIL: " + strings.Join(bad, "; ")
				failures = append(failures, fmt.Sprintf("%s/%s: %s", name, cpu, strings.Join(bad, "; ")))
			}
			fmt.Fprintf(w, "%-34s %-5s %12.1f %12.1f %10.0f %8.0f  %s\n",
				name, cpu, got.NsOp, want.NsOp, got.BOp, got.AllocsOp, verdict)
		}
	}
	if len(base.Ratios) > 0 {
		fmt.Fprintf(w, "\n%-60s %9s %9s  verdict\n", "scaling ratio", "speedup", "min")
		for _, r := range base.Ratios {
			label := fmt.Sprintf("%s / %s @%s", r.Scaled, r.Base, r.CPU)
			bs, ss := results[r.Base][r.CPU], results[r.Scaled][r.CPU]
			if len(bs) == 0 || len(ss) == 0 {
				failures = append(failures, fmt.Sprintf("ratio %s: not measured", label))
				fmt.Fprintf(w, "%-60s %9s %9.2f  MISSING\n", label, "-", r.MinSpeedup)
				continue
			}
			speedup := best(bs).NsOp / best(ss).NsOp
			verdict := "ok"
			if speedup < r.MinSpeedup {
				verdict = fmt.Sprintf("FAIL: speedup %.2f < %.2f", speedup, r.MinSpeedup)
				failures = append(failures, fmt.Sprintf("ratio %s: %s", label, verdict))
			}
			fmt.Fprintf(w, "%-60s %9.2f %9.2f  %s\n", label, speedup, r.MinSpeedup, verdict)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("benchgate: %d regression(s):\n  %s",
			len(failures), strings.Join(failures, "\n  "))
	}
	return nil
}
