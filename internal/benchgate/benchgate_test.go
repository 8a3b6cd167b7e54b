package benchgate

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: slice
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkProxyForwardParallel     	   20000	      1962 ns/op	      94 B/op	       0 allocs/op
BenchmarkProxyForwardParallel-4   	   20000	      1979 ns/op	      99 B/op	       0 allocs/op
BenchmarkProxyForwardSerial       	   20000	      1902 ns/op	       0 B/op	       0 allocs/op
BenchmarkProxyForwardSerial-4     	   20000	      1745 ns/op	       0 B/op	       0 allocs/op
BenchmarkProxyForwardSerial       	   20000	      1800 ns/op	       0 B/op	       1 allocs/op
BenchmarkAttrCacheHitParallel     	 1000000	        66.1 ns/op	       0 B/op	       0 allocs/op
BenchmarkAttrCacheHitParallel-4   	 1000000	        72.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkNameCacheHitParallel     	 1000000	        71.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkNameCacheHitParallel-4   	 1000000	        74.0 ns/op	       0 B/op	       0 allocs/op
PASS
`

const baselineJSON = `{
  "current": {
    "BenchmarkProxyForwardParallel": {"cpu1": {"ns_op": 1605, "b_op": 2, "allocs_op": 0}, "cpu4": {"ns_op": 1552, "b_op": 2, "allocs_op": 0}},
    "BenchmarkProxyForwardSerial":   {"cpu1": {"ns_op": 1425, "b_op": 0, "allocs_op": 0}, "cpu4": {"ns_op": 1656, "b_op": 0, "allocs_op": 0}},
    "BenchmarkAttrCacheHitParallel": {"cpu1": {"ns_op": 65.55, "b_op": 0, "allocs_op": 0}, "cpu4": {"ns_op": 71.09, "b_op": 0, "allocs_op": 0}},
    "BenchmarkNameCacheHitParallel": {"cpu1": {"ns_op": 70.52, "b_op": 0, "allocs_op": 0}, "cpu4": {"ns_op": 72.83, "b_op": 0, "allocs_op": 0}}
  }
}`

func TestParseBench(t *testing.T) {
	res, err := ParseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res["BenchmarkProxyForwardSerial"]["cpu1"]); got != 2 {
		t.Fatalf("serial cpu1 samples = %d, want 2 (count runs accumulate)", got)
	}
	if got := res["BenchmarkProxyForwardParallel"]["cpu4"][0].BOp; got != 99 {
		t.Fatalf("parallel cpu4 B/op = %v, want 99", got)
	}
	if got := res["BenchmarkAttrCacheHitParallel"]["cpu1"][0].NsOp; got != 66.1 {
		t.Fatalf("attr cpu1 ns/op = %v, want 66.1", got)
	}
}

func TestBestTakesMin(t *testing.T) {
	b := best([]Sample{
		{NsOp: 1902, BOp: 0, AllocsOp: 1},
		{NsOp: 1800, BOp: 4, AllocsOp: 0},
	})
	if b.NsOp != 1800 || b.BOp != 0 || b.AllocsOp != 0 {
		t.Fatalf("best = %+v, want min of each metric", b)
	}
}

func TestGatePasses(t *testing.T) {
	base, err := ParseBaseline([]byte(baselineJSON))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ParseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Check(&buf, base, res, Config{}); err != nil {
		t.Fatalf("gate failed on in-budget results: %v\n%s", err, buf.String())
	}
}

func TestGateFailsOnAllocInflation(t *testing.T) {
	base, err := ParseBaseline([]byte(baselineJSON))
	if err != nil {
		t.Fatal(err)
	}
	inflated := strings.ReplaceAll(sampleOutput,
		"1745 ns/op	       0 B/op	       0 allocs/op",
		"1745 ns/op	      48 B/op	       3 allocs/op")
	inflated = strings.ReplaceAll(inflated,
		"1902 ns/op	       0 B/op	       0 allocs/op",
		"1902 ns/op	      48 B/op	       3 allocs/op")
	inflated = strings.ReplaceAll(inflated,
		"1800 ns/op	       0 B/op	       1 allocs/op",
		"1800 ns/op	      48 B/op	       3 allocs/op")
	res, err := ParseBench(strings.NewReader(inflated))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = Check(&buf, base, res, Config{})
	if err == nil {
		t.Fatalf("gate passed inflated allocations:\n%s", buf.String())
	}
	if !strings.Contains(err.Error(), "allocs/op 3 > 0") {
		t.Fatalf("failure does not name the alloc regression: %v", err)
	}
}

func TestGateFailsOnLatencyBlowup(t *testing.T) {
	base, err := ParseBaseline([]byte(baselineJSON))
	if err != nil {
		t.Fatal(err)
	}
	slow := strings.ReplaceAll(sampleOutput, "1962 ns/op", "9900 ns/op")
	res, err := ParseBench(strings.NewReader(slow))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Check(&buf, base, res, Config{Tolerance: 2.5}); err == nil {
		t.Fatalf("gate passed a 5x latency regression:\n%s", buf.String())
	}
}

func TestGateFailsOnMissingBenchmark(t *testing.T) {
	base, err := ParseBaseline([]byte(baselineJSON))
	if err != nil {
		t.Fatal(err)
	}
	partial := strings.ReplaceAll(sampleOutput, "BenchmarkNameCacheHitParallel", "BenchmarkRenamedAway")
	res, err := ParseBench(strings.NewReader(partial))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Check(&buf, base, res, Config{}); err == nil ||
		!strings.Contains(err.Error(), "not measured") {
		t.Fatalf("gate did not flag a gated benchmark that vanished: %v", err)
	}
}

const fleetOutput = `goos: linux
BenchmarkFleetForward/proxies=1-4 	    5000	     49742 ns/op	      20 B/op	       0 allocs/op
BenchmarkFleetForward/proxies=2-4 	    5000	     27122 ns/op	      20 B/op	       0 allocs/op
BenchmarkFleetForward/proxies=4-4 	    5000	     13613 ns/op	      23 B/op	       0 allocs/op
BenchmarkFleetForward/proxies=8-4 	    5000	      8391 ns/op	      24 B/op	       0 allocs/op
PASS
`

const fleetBaselineJSON = `{
  "current": {
    "BenchmarkFleetForward/proxies=1": {"cpu4": {"ns_op": 50000, "b_op": 20, "allocs_op": 0}},
    "BenchmarkFleetForward/proxies=4": {"cpu4": {"ns_op": 13400, "b_op": 20, "allocs_op": 0}}
  },
  "ratios": [
    {"base": "BenchmarkFleetForward/proxies=1", "scaled": "BenchmarkFleetForward/proxies=4", "cpu": "cpu4", "min_speedup": 3.2}
  ]
}`

func TestRatioGatePasses(t *testing.T) {
	base, err := ParseBaseline([]byte(fleetBaselineJSON))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ParseBench(strings.NewReader(fleetOutput))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Check(&buf, base, res, Config{}); err != nil {
		t.Fatalf("ratio gate failed on 3.65x scaling: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "scaling ratio") {
		t.Fatalf("verdict table has no ratio section:\n%s", buf.String())
	}
}

func TestRatioGateFailsOnLostScaling(t *testing.T) {
	base, err := ParseBaseline([]byte(fleetBaselineJSON))
	if err != nil {
		t.Fatal(err)
	}
	// 4 proxies barely beating 1 — the shared-nothing property broke.
	flat := strings.ReplaceAll(fleetOutput, "13613 ns/op", "40000 ns/op")
	res, err := ParseBench(strings.NewReader(flat))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = Check(&buf, base, res, Config{})
	if err == nil {
		t.Fatalf("ratio gate passed a 1.24x \"scale-out\":\n%s", buf.String())
	}
	if !strings.Contains(err.Error(), "speedup") {
		t.Fatalf("failure does not name the lost speedup: %v", err)
	}
}

func TestRatioGateFailsWhenSideMissing(t *testing.T) {
	base, err := ParseBaseline([]byte(fleetBaselineJSON))
	if err != nil {
		t.Fatal(err)
	}
	partial := strings.ReplaceAll(fleetOutput, "proxies=4", "proxies=3")
	res, err := ParseBench(strings.NewReader(partial))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Check(&buf, base, res, Config{}); err == nil ||
		!strings.Contains(err.Error(), "not measured") {
		t.Fatalf("ratio gate did not flag a missing side: %v", err)
	}
}

// TestRealBaselineParses guards the checked-in BENCH_proxy.json against
// schema drift: the gate must always be able to load it.
func TestRealBaselineParses(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_proxy.json")
	if err != nil {
		t.Skipf("BENCH_proxy.json: %v", err)
	}
	base, err := ParseBaseline(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"BenchmarkProxyForwardSerial", "BenchmarkProxyForwardParallel"} {
		m, ok := base.Current[name]
		if !ok {
			t.Fatalf("baseline missing %s", name)
		}
		for cpu, want := range m {
			if want.AllocsOp != 0 {
				t.Errorf("%s/%s: baseline allocs_op %v, the forward path budget is 0",
					name, cpu, want.AllocsOp)
			}
		}
	}
	// The §4.1 gate must stay in force: the µproxy's cost may not grow
	// with the packet, so a 32 KiB READ pair takes at most 1.3× a 4 KiB
	// one at both CPU counts.
	for _, cpu := range []string{"cpu1", "cpu4"} {
		found := false
		for _, r := range base.Ratios {
			if r.Base == "BenchmarkProxyHandleRead/4KiB" && r.Scaled == "BenchmarkProxyHandleRead/32KiB" &&
				r.CPU == cpu && r.MinSpeedup >= 0.77 {
				found = true
			}
		}
		if !found {
			t.Errorf("baseline has no %s ProxyHandleRead 32KiB/4KiB ratio rule with min_speedup >= 0.77", cpu)
		}
	}
}
