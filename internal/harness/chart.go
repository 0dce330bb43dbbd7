package harness

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// WriteChart renders one figure as an ASCII chart (log-scale y, log-scale
// x over the node sweep), one letter per configuration — a terminal
// rendition of the paper's plots. metric is "init" or "weak".
func WriteChart(w io.Writer, results []*Result, metric string) error {
	type point struct {
		nodes int
		val   float64
	}
	series := make(map[string][]point)
	nodesSet := map[int]bool{}
	unit := ""
	for _, r := range results {
		v := r.InitTime
		if metric == "weak" {
			v = r.ThroughputPerNode
			unit = r.UnitName + "/s/node"
		} else {
			unit = "seconds"
		}
		if v <= 0 {
			continue
		}
		series[r.System] = append(series[r.System], point{r.Nodes, v})
		nodesSet[r.Nodes] = true
	}
	if len(series) == 0 {
		return nil
	}
	var nodes []int
	for n := range nodesSet {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)

	// One letter per system, stable order.
	legendOrder := []string{
		"raycast_dcr", "raycast_nodcr", "warnock_dcr", "warnock_nodcr", "paint_nodcr",
		"raycast_dcr_trace", "raycast_nodcr_trace", "warnock_dcr_trace", "warnock_nodcr_trace", "paint_nodcr_trace",
	}
	letters := "RrWwPRrWwP"
	sysLetter := map[string]byte{}
	legend := make([]string, 0, len(series))
	li := 0
	for _, sys := range legendOrder {
		if _, ok := series[sys]; !ok {
			continue
		}
		sysLetter[sys] = letters[li%len(letters)]
		legend = append(legend, fmt.Sprintf("%c=%s", letters[li%len(letters)], sys))
		li++
	}
	known := len(legend)
	for sys := range series {
		if _, ok := sysLetter[sys]; !ok {
			sysLetter[sys] = '?'
			legend = append(legend, fmt.Sprintf("?=%s", sys))
		}
	}
	sort.Strings(legend[known:])

	lo, hi := math.Inf(1), math.Inf(-1)
	for _, pts := range series {
		for _, p := range pts {
			lo = math.Min(lo, p.val)
			hi = math.Max(hi, p.val)
		}
	}
	if lo == hi {
		hi = lo * 1.01
	}
	logLo, logHi := math.Log10(lo), math.Log10(hi)

	const rows = 14
	colOf := map[int]int{}
	for i, n := range nodes {
		colOf[n] = i * 6
	}
	width := (len(nodes)-1)*6 + 1
	grid := make([][]byte, rows)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	rowOf := func(v float64) int {
		frac := (math.Log10(v) - logLo) / (logHi - logLo)
		r := int(math.Round(float64(rows-1) * (1 - frac)))
		if r < 0 {
			r = 0
		}
		if r >= rows {
			r = rows - 1
		}
		return r
	}
	for sys, pts := range series {
		for _, p := range pts {
			r, c := rowOf(p.val), colOf[p.nodes]
			if grid[r][c] == ' ' {
				grid[r][c] = sysLetter[sys]
			} else if grid[r][c] != sysLetter[sys] {
				grid[r][c] = '*' // collision
			}
		}
	}

	pw := &printer{w: w}
	pw.printf("# %s (log-log; * = overlapping series)\n", unit)
	for r := 0; r < rows; r++ {
		frac := 1 - float64(r)/float64(rows-1)
		val := math.Pow(10, logLo+frac*(logHi-logLo))
		pw.printf("%10.3g |%s\n", val, string(grid[r]))
	}
	pw.printf("%10s +%s\n", "", strings.Repeat("-", width))
	var axis strings.Builder
	axis.WriteString(strings.Repeat(" ", 11))
	for i, n := range nodes {
		label := fmt.Sprint(n)
		pos := i*6 + 1
		for axis.Len() < 11+pos {
			axis.WriteByte(' ')
		}
		axis.WriteString(label)
	}
	pw.printf("%s\n", axis.String())
	pw.printf("%10s  nodes    %s\n", "", strings.Join(legend, "  "))
	return pw.err
}
