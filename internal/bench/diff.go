package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"
)

// Thresholds configures the regression gate. Each threshold is a percent
// and only enforced when positive; zero disables that gate, so a plain
// diff never fails on its own.
type Thresholds struct {
	// MaxRegressPct breaches when a cell's wall-clock launches/sec drops
	// by more than this percent. Wall numbers are machine-dependent, so
	// cross-machine gates should use a generous value here and lean on
	// the two deterministic gates below.
	MaxRegressPct float64
	// MaxAllocGrowthPct breaches when allocs/launch grows by more than
	// this percent. Allocation counts are near-deterministic, so this
	// gate is meaningful across machines.
	MaxAllocGrowthPct float64
	// MaxVirtRegressPct breaches when the virtual-time per-iteration
	// analysis cost grows by more than this percent. Virtual time is a
	// deterministic replay, identical on every machine.
	MaxVirtRegressPct float64
}

// CellDelta compares one cell across two records. Percent deltas are
// new-relative-to-old: positive LaunchesPerSecPct is faster, positive
// AllocsPct is more garbage.
type CellDelta struct {
	Key      string
	Old, New Cell

	LaunchesPerSecPct float64
	AllocsPct         float64
	BytesPct          float64
	P95Pct            float64
	IterTimePct       float64

	// Breaches names the exceeded thresholds, empty when the cell passes.
	Breaches []string
}

// DiffReport is the outcome of comparing two records cell-by-cell over
// their common keys.
type DiffReport struct {
	Deltas []CellDelta
	// MissingInNew lists old cells absent from the new record (a shrunk
	// sweep — reported, not gated); MissingInOld lists new cells with no
	// baseline yet.
	MissingInNew []string
	MissingInOld []string
	// Breached is true when any cell exceeded a threshold.
	Breached bool
}

// pctDelta returns (cur-prev)/prev as a percent; with a zero baseline
// there is no meaningful ratio, so the delta is 0 and never gates.
func pctDelta(cur, prev float64) float64 {
	if prev == 0 {
		return 0
	}
	return (cur - prev) / prev * 100
}

// Diff compares cur against the prev baseline under the given
// thresholds. Cells match by Key; the report lists deltas in the
// canonical cell order of the baseline record.
func Diff(prev, cur *Record, th Thresholds) *DiffReport {
	prev.Sort()
	cur.Sort()
	newByKey := make(map[string]Cell, len(cur.Cells))
	for _, c := range cur.Cells {
		newByKey[c.Key()] = c
	}
	oldKeys := make(map[string]bool, len(prev.Cells))
	rep := &DiffReport{}
	for _, oc := range prev.Cells {
		key := oc.Key()
		oldKeys[key] = true
		nc, ok := newByKey[key]
		if !ok {
			rep.MissingInNew = append(rep.MissingInNew, key)
			continue
		}
		d := CellDelta{
			Key: key, Old: oc, New: nc,
			LaunchesPerSecPct: pctDelta(nc.LaunchesPerSec, oc.LaunchesPerSec),
			AllocsPct:         pctDelta(nc.AllocsPerLaunch, oc.AllocsPerLaunch),
			BytesPct:          pctDelta(nc.BytesPerLaunch, oc.BytesPerLaunch),
			P95Pct:            pctDelta(float64(nc.AnalysisP95Ns), float64(oc.AnalysisP95Ns)),
			IterTimePct:       pctDelta(nc.IterTime, oc.IterTime),
		}
		if th.MaxRegressPct > 0 && d.LaunchesPerSecPct < -th.MaxRegressPct {
			d.Breaches = append(d.Breaches, fmt.Sprintf("launches/sec %.1f%% (limit -%.1f%%)", d.LaunchesPerSecPct, th.MaxRegressPct))
		}
		if th.MaxAllocGrowthPct > 0 && d.AllocsPct > th.MaxAllocGrowthPct {
			d.Breaches = append(d.Breaches, fmt.Sprintf("allocs/launch +%.1f%% (limit +%.1f%%)", d.AllocsPct, th.MaxAllocGrowthPct))
		}
		if th.MaxVirtRegressPct > 0 && d.IterTimePct > th.MaxVirtRegressPct {
			d.Breaches = append(d.Breaches, fmt.Sprintf("virtual iter time +%.1f%% (limit +%.1f%%)", d.IterTimePct, th.MaxVirtRegressPct))
		}
		if len(d.Breaches) > 0 {
			rep.Breached = true
		}
		rep.Deltas = append(rep.Deltas, d)
	}
	for _, nc := range cur.Cells {
		if !oldKeys[nc.Key()] {
			rep.MissingInOld = append(rep.MissingInOld, nc.Key())
		}
	}
	return rep
}

// Variant returns the measurement-variant suffix of a system name, the
// part after the algorithm and DCR tokens: "" for "raycast_dcr", "auto"
// for "raycast_dcr_auto".
func Variant(system string) string {
	for _, tok := range []string{"_nodcr", "_dcr"} {
		if i := strings.Index(system, tok); i >= 0 {
			return strings.TrimPrefix(system[i+len(tok):], "_")
		}
	}
	return ""
}

// VariantAggregate is the launches/sec aggregate (total launches over
// total wall time) for one measurement variant across the compared
// cells, for the baseline and candidate sides.
type VariantAggregate struct {
	Variant   string // "" is the plain cells, "auto" the autotraced ones
	Cells     int
	Prev, Cur float64
}

// AggregateDeltas returns one launches/sec aggregate per measurement
// variant across the compared cells only, so neither a wider sweep nor a
// record's mix of plain and "_auto" cells (a different regime) reads as
// drift. Variants are returned in sorted order, the plain one first.
func (rep *DiffReport) AggregateDeltas() []VariantAggregate {
	type sums struct {
		prevL, prevW, curL, curW float64
		n                        int
	}
	byVariant := make(map[string]*sums)
	for _, d := range rep.Deltas {
		v := Variant(d.New.System)
		s := byVariant[v]
		if s == nil {
			s = &sums{}
			byVariant[v] = s
		}
		s.prevL += float64(d.Old.Launches)
		s.prevW += d.Old.WallSeconds
		s.curL += float64(d.New.Launches)
		s.curW += d.New.WallSeconds
		s.n++
	}
	variants := make([]string, 0, len(byVariant))
	for v := range byVariant {
		variants = append(variants, v)
	}
	sort.Strings(variants) // "" sorts first, so the plain cells lead
	out := make([]VariantAggregate, 0, len(variants))
	for _, v := range variants {
		s := byVariant[v]
		agg := VariantAggregate{Variant: v, Cells: s.n}
		if s.prevW > 0 {
			agg.Prev = s.prevL / s.prevW
		}
		if s.curW > 0 {
			agg.Cur = s.curL / s.curW
		}
		out = append(out, agg)
	}
	return out
}

// WriteTable renders the per-cell delta table plus missing-cell notes
// and the aggregate drift line. Breaching cells are marked with '!' and
// restated under the table so a failing CI log names the exact gates.
func (rep *DiffReport) WriteTable(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	p := &printer{w: tw}
	p.printf("CELL\tLAUNCH/S\tΔ%%\tALLOC/OP\tΔ%%\tBYTES/OP\tΔ%%\tP95µs\tΔ%%\tITER\tΔ%%\t\n")
	for _, d := range rep.Deltas {
		mark := ""
		if len(d.Breaches) > 0 {
			mark = "!"
		}
		p.printf("%s\t%.0f\t%+.1f\t%.1f\t%+.1f\t%.0f\t%+.1f\t%.0f\t%+.1f\t%.3g\t%+.1f\t%s\n",
			d.Key,
			d.New.LaunchesPerSec, d.LaunchesPerSecPct,
			d.New.AllocsPerLaunch, d.AllocsPct,
			d.New.BytesPerLaunch, d.BytesPct,
			float64(d.New.AnalysisP95Ns)/1e3, d.P95Pct,
			d.New.IterTime, d.IterTimePct,
			mark)
	}
	if p.err == nil {
		p.err = tw.Flush()
	}
	p.w = w
	for _, key := range rep.MissingInNew {
		p.printf("missing in new record: %s\n", key)
	}
	for _, key := range rep.MissingInOld {
		p.printf("no baseline for: %s\n", key)
	}
	for _, agg := range rep.AggregateDeltas() {
		label := agg.Variant
		if label == "" {
			label = "plain"
		}
		p.printf("aggregate launches/sec (%s): %.0f -> %.0f (%+.1f%%) over %d common cell(s)\n",
			label, agg.Prev, agg.Cur, pctDelta(agg.Cur, agg.Prev), agg.Cells)
	}
	for _, d := range rep.Deltas {
		for _, b := range d.Breaches {
			p.printf("REGRESSION %s: %s\n", d.Key, b)
		}
	}
	return p.err
}

// printer holds the first write error so report rendering checks once.
type printer struct {
	w   io.Writer
	err error
}

func (p *printer) printf(format string, args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}
