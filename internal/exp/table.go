// Package exp regenerates every table and figure of the paper's
// evaluation (§IV): the Table III power verification, the Table IV
// 183-day replay statistics, the Fig. 4 power breakdown, the Fig. 7
// cooling-model validation, the Fig. 8 synthetic-benchmark transient, the
// Fig. 9 24-hour replay, and the two §IV-3 what-if studies (smart
// load-sharing rectifiers and 380 V DC distribution). Each experiment
// returns a Table that prints like the paper's artifact plus the raw
// series for further analysis; cmd/experiments drives them all.
package exp

import (
	"fmt"
	"strings"
)

// Table is a printable experiment artifact.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	var sb strings.Builder
	sb.WriteString(t.Title)
	sb.WriteByte('\n')
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Columns)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", max(total-2, 4)))
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func d0(v float64) string { return fmt.Sprintf("%.0f", v) }
