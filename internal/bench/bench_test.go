package bench

import (
	"bytes"
	"strings"
	"testing"
)

// The experiment drivers must run cleanly and report every row they
// promise; the numeric shape assertions live in internal/sim's tests.

func runExp(t *testing.T, name string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := Run(name, &buf); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return buf.String()
}

func TestTable2Report(t *testing.T) {
	out := runExp(t, "table2")
	for _, want := range []string{"read", "write", "read-mirrored", "write-mirrored", "MB/s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table2 output missing %q:\n%s", want, out)
		}
	}
}

func TestTable3Report(t *testing.T) {
	out := runExp(t, "table3")
	for _, want := range []string{
		"packet interception", "packet decode", "redirection/rewriting",
		"soft state logic", "ns/packet",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("table3 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig3Report(t *testing.T) {
	out := runExp(t, "fig3")
	for _, want := range []string{"N-MFS", "Slice-1", "Slice-2", "Slice-4", "processes"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig3 output missing %q", want)
		}
	}
}

func TestFig4Report(t *testing.T) {
	out := runExp(t, "fig4")
	for _, want := range []string{"affinity", "100%", "16 proc"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig4 output missing %q", want)
		}
	}
}

func TestAblationReports(t *testing.T) {
	for _, name := range []string{
		"ablation-hash", "ablation-threshold",
		"ablation-placement", "ablation-affinity-policy",
	} {
		out := runExp(t, name)
		if !strings.Contains(out, "Ablation") {
			t.Fatalf("%s output missing banner", name)
		}
	}
}

func TestSfsReports(t *testing.T) {
	if testing.Short() {
		t.Skip("fig5/fig6 sweeps take several seconds")
	}
	out := runExp(t, "fig5")
	for _, want := range []string{"NFS", "Slice-8", "offered"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig5 output missing %q", want)
		}
	}
	out = runExp(t, "fig6")
	if !strings.Contains(out, "Celerra") {
		t.Fatal("fig6 output missing the Celerra reference")
	}
}

func TestUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("nope", &buf); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestTableFormatter(t *testing.T) {
	var buf bytes.Buffer
	tb := newTable("a", "bb")
	tb.addf("x|1")
	tb.addf("longer|2")
	tb.write(&buf)
	out := buf.String()
	if !strings.Contains(out, "longer") || !strings.Contains(out, "bb") {
		t.Fatalf("formatter output:\n%s", out)
	}
}
