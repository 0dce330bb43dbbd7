package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"visibility/internal/harness"
	"visibility/internal/obs"
)

// spanCap bounds the per-run span ring the latency quantiles are computed
// from; it comfortably holds the default sweeps. If a run records more
// analysis spans than this, the quantiles cover the most recent spanCap
// spans.
const spanCap = 1 << 17

// autoIters is the timed window of the autotraced cells: replay throughput
// is a steady-state property, so they time a longer window than Iters to
// keep the single recording iteration from dominating the measurement.
const autoIters = 30

// Options configures one benchmark collection.
type Options struct {
	// Apps are the application names to measure, each an entry of
	// harness.Apps.
	Apps []string
	// MaxNodes bounds the power-of-two machine-size sweep.
	MaxNodes int
	// Iters is the number of steady-state iterations timed per run
	// (0 = harness default of 3).
	Iters int
	// Reps repeats every cell and aggregates min-of-reps (best
	// throughput, fewest allocations, lowest latency) — the repetition
	// discipline that makes wall-clock numbers comparable across runs.
	// 0 or 1 measures once.
	Reps int
	// Commit identifies the measured code in the record's metadata
	// (empty = "unknown").
	Commit string
	// ProfileDir, when non-empty, receives per-cell pprof profiles:
	// <app>_<system>_n<nodes>.cpu.pprof covering the cell's repetitions
	// and a matching .heap.pprof taken after them, for offline hot-path
	// attribution with `go tool pprof`.
	ProfileDir string
	// AutoTrace additionally measures every configuration with automatic
	// trace memoization enabled, as "<system>_auto" cells timed over
	// autoIters iterations. The record schema is unchanged — the
	// system-name suffix is the only visible difference.
	AutoTrace bool
}

// Collect measures every cell of the configured sweep and returns the
// assembled record. Cells run serially — never in parallel — because the
// wall-clock measurements (time, ReadMemStats allocation deltas, CPU
// profiles) are process-global and concurrent cells would pollute each
// other; a collection is a measurement session, not a throughput race.
func Collect(opts Options) (*Record, error) {
	reps := opts.Reps
	if reps < 1 {
		reps = 1
	}
	commit := opts.Commit
	if commit == "" {
		commit = "unknown"
	}
	if opts.ProfileDir != "" {
		if err := os.MkdirAll(opts.ProfileDir, 0o755); err != nil {
			return nil, fmt.Errorf("bench: profile dir: %w", err)
		}
	}
	appNames := append([]string(nil), opts.Apps...)
	sort.Strings(appNames)

	rec := &Record{Meta: Meta{
		Schema:     Schema,
		Commit:     commit,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Reps:       reps,
		Iters:      opts.Iters,
		MaxNodes:   opts.MaxNodes,
		Apps:       appNames,
	}}

	for _, name := range appNames {
		app, err := harness.FindApp(name)
		if err != nil {
			return nil, fmt.Errorf("bench: %w", err)
		}
		for _, pc := range harness.PaperConfigs() {
			for _, nodes := range harness.NodeSweep(opts.MaxNodes) {
				plain := harness.Config{
					App: app.Build, AppName: name, Algorithm: pc.Algorithm, DCR: pc.DCR,
					Nodes: nodes, MeasureIters: opts.Iters,
				}
				variants := []harness.Config{plain}
				if opts.AutoTrace {
					auto := plain
					auto.AutoTrace, auto.MeasureIters = true, autoIters
					variants = append(variants, auto)
				}
				for _, cfg := range variants {
					cell, err := measureCell(cfg, reps, opts.ProfileDir)
					if err != nil {
						return nil, err
					}
					rec.Cells = append(rec.Cells, cell)
				}
			}
		}
	}
	rec.Sort()
	return rec, nil
}

// measureCell runs one cell reps times and folds the repetitions
// min-of-reps: fastest wall time (hence best launches/sec), fewest
// allocations per launch, lowest latency quantiles. The virtual-time
// metrics are deterministic and identical across reps, so they are taken
// from the last run. The cell is named by the harness (Result.System), so
// the CPU profile is written under a temporary name and takes the cell's
// name once the first run has reported it.
func measureCell(cfg harness.Config, reps int, profileDir string) (Cell, error) {
	cell := Cell{App: cfg.AppName, Nodes: cfg.Nodes}

	var cpuFile *os.File
	if profileDir != "" {
		f, err := os.CreateTemp(profileDir, "cell-*.cpu.pprof")
		if err != nil {
			return cell, fmt.Errorf("bench: cpu profile: %w", err)
		}
		cpuFile = f
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return cell, fmt.Errorf("bench: cpu profile: %w", err)
		}
	}

	for rep := 0; rep < reps; rep++ {
		spans := obs.NewBuffer(spanCap)
		// Settle the heap so the allocation delta belongs to this run,
		// not to garbage carried over from the previous cell.
		runtime.GC()
		before := obs.ReadAllocs()
		start := time.Now()
		cfg.Spans = spans
		r, err := harness.Run(cfg)
		wall := time.Since(start).Seconds()
		allocs, bytes := obs.ReadAllocs().Since(before)
		if err != nil {
			_ = stopCellProfile(cpuFile, "") // the run error is primary
			return cell, err
		}

		// One sample per analyzed launch: its analyze span.
		qs := obs.Quantiles(obs.SpanDurations(spans.Snapshot(), "analysis"), 0.50, 0.95, 0.99)
		launchesPerSec := 0.0
		if wall > 0 {
			launchesPerSec = float64(r.Launches) / wall
		}
		perLaunch := func(v int64) float64 {
			if r.Launches == 0 {
				return 0
			}
			return float64(v) / float64(r.Launches)
		}

		if rep == 0 {
			cell.Launches = r.Launches
			cell.WallSeconds = wall
			cell.LaunchesPerSec = launchesPerSec
			cell.AllocsPerLaunch = perLaunch(allocs)
			cell.BytesPerLaunch = perLaunch(bytes)
			cell.AnalysisP50Ns, cell.AnalysisP95Ns, cell.AnalysisP99Ns = qs[0], qs[1], qs[2]
		} else {
			cell.WallSeconds = min(cell.WallSeconds, wall)
			cell.LaunchesPerSec = max(cell.LaunchesPerSec, launchesPerSec)
			cell.AllocsPerLaunch = min(cell.AllocsPerLaunch, perLaunch(allocs))
			cell.BytesPerLaunch = min(cell.BytesPerLaunch, perLaunch(bytes))
			cell.AnalysisP50Ns = min(cell.AnalysisP50Ns, qs[0])
			cell.AnalysisP95Ns = min(cell.AnalysisP95Ns, qs[1])
			cell.AnalysisP99Ns = min(cell.AnalysisP99Ns, qs[2])
		}
		cell.System = r.System
		cell.InitTime = r.InitTime
		cell.IterTime = r.IterTime
		cell.ThroughputPerNode = r.ThroughputPerNode
	}

	base := ""
	if profileDir != "" {
		base = filepath.Join(profileDir, fmt.Sprintf("%s_%s_n%d", cell.App, cell.System, cell.Nodes))
	}
	return cell, stopCellProfile(cpuFile, base)
}

// stopCellProfile finishes the cell's CPU profile (if one is running).
// With a non-empty base it moves the profile to <base>.cpu.pprof and
// captures a post-GC heap profile beside it; with an empty base (the run
// failed) it discards the profile.
func stopCellProfile(cpuFile *os.File, base string) error {
	if cpuFile != nil {
		pprof.StopCPUProfile()
		if err := cpuFile.Close(); err != nil {
			return fmt.Errorf("bench: cpu profile: %w", err)
		}
		if base == "" {
			return os.Remove(cpuFile.Name())
		}
		if err := os.Rename(cpuFile.Name(), base+".cpu.pprof"); err != nil {
			return fmt.Errorf("bench: cpu profile: %w", err)
		}
	}
	if base == "" {
		return nil
	}
	f, err := os.Create(base + ".heap.pprof")
	if err != nil {
		return fmt.Errorf("bench: heap profile: %w", err)
	}
	defer f.Close()
	runtime.GC() // profile live heap, not collectable garbage
	if err := pprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("bench: heap profile: %w", err)
	}
	return nil
}
