// Package bench regenerates every table and figure of the paper's
// evaluation (§5). Each experiment prints the same rows or series the
// paper reports, alongside the paper's own numbers where it states them,
// so shape and crossover comparisons are immediate.
//
// Performance-shape experiments (Table 2, Figures 3-6) run on the
// calibrated discrete-event simulator (internal/sim); the µproxy cost
// breakdown (Table 3) is measured on the live implementation under the
// untar workload.
package bench

import (
	"fmt"
	"io"
	"strings"
)

// Experiment names accepted by Run.
var Experiments = []string{
	"table2", "table3", "fig3", "fig4", "fig5", "fig6",
	"ablation-hash", "ablation-threshold", "ablation-placement",
	"ablation-affinity-policy",
}

// Run executes the named experiment, writing its report to w.
func Run(name string, w io.Writer) error {
	switch name {
	case "table2":
		return Table2(w)
	case "table3":
		return Table3(w)
	case "fig3":
		return Fig3(w)
	case "fig4":
		return Fig4(w)
	case "fig5":
		return Fig5(w)
	case "fig6":
		return Fig6(w)
	case "ablation-hash":
		return AblationHash(w)
	case "ablation-threshold":
		return AblationThreshold(w)
	case "ablation-placement":
		return AblationPlacement(w)
	case "ablation-affinity-policy":
		return AblationAffinityPolicy(w)
	case "all":
		for _, n := range Experiments {
			if err := Run(n, w); err != nil {
				return fmt.Errorf("%s: %w", n, err)
			}
			fmt.Fprintln(w)
		}
		return nil
	default:
		return fmt.Errorf("bench: unknown experiment %q (have %s, all)",
			name, strings.Join(Experiments, ", "))
	}
}

// header prints an experiment banner.
func header(w io.Writer, title, caption string) {
	fmt.Fprintf(w, "=== %s ===\n%s\n\n", title, caption)
}

// table is a tiny column formatter.
type table struct {
	cols []string
	rows [][]string
}

func newTable(cols ...string) *table { return &table{cols: cols} }

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) addf(format string, args ...interface{}) {
	t.add(strings.Split(fmt.Sprintf(format, args...), "|")...)
}

func (t *table) write(w io.Writer) {
	widths := make([]int, len(t.cols))
	for i, c := range t.cols {
		widths[i] = len(c)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.cols)
	sep := make([]string, len(t.cols))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}
