// Command vistop is a live terminal dashboard for a running visserve
// instance. Each frame it polls /metrics, /v1/sessions, /debug/spans,
// and /debug/critpath and renders four tables: per-endpoint HTTP traffic
// with latency quantiles, per-session throughput and trace hit rate (the
// share of launches served by trace replay), a CRIT
// panel with each session tree's weighted critical-path profile
// (virtual makespan, work, parallelism ratio, heaviest bottleneck
// task), and the hottest analysis phases by self time (where analysis
// wall-clock actually goes). A header row summarizes the latest committed BENCH_<n>.json
// benchmark record (see -bench), so live launch rates read against the
// repo's measured trajectory baseline. By default it redraws in place
// every two seconds; -plain appends frames instead (for logs and
// pipes), and -frames bounds the run for scripting.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"visibility"
	"visibility/internal/bench"
	"visibility/internal/obs"
	"visibility/internal/server/client"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vistop:", err)
		os.Exit(1)
	}
}

// say writes dashboard output; a broken pipe mid-frame is not actionable
// beyond the next frame failing too, so the error is dropped here, in
// exactly one place.
func say(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...)
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("vistop", flag.ContinueOnError)
	target := fs.String("target", "http://127.0.0.1:8080", "visserve URL to watch")
	interval := fs.Duration("interval", 2*time.Second, "refresh interval")
	frames := fs.Int("frames", 0, "frames to render before exiting (0 = run until interrupted)")
	plain := fs.Bool("plain", false, "append frames instead of redrawing the screen")
	benchPath := fs.String("bench", ".", "BENCH_<n>.json file or directory holding the committed benchmark trajectory (\"\" hides the bench row)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The committed trajectory point doesn't move while watching a
	// server, so the bench row is resolved once, not per frame.
	benchLine := benchSummary(*benchPath)
	c := client.New(*target)
	var prev *sample
	for frame := 0; *frames == 0 || frame < *frames; frame++ {
		if frame > 0 {
			time.Sleep(*interval)
		}
		cur, err := fetchSample(c)
		if err != nil {
			if prev == nil {
				return err // can't reach the server at all
			}
			say(stdout, "vistop: fetch: %v\n", err)
			continue
		}
		render(stdout, *target, benchLine, prev, cur, *plain)
		prev = cur
	}
	return nil
}

// benchSummary renders the one-line trajectory row from the latest
// committed benchmark record: where the repo's measured baseline stands,
// so live launch rates on the dashboard read against it at a glance.
// Returns "" when there is nothing to show (no record, or disabled).
func benchSummary(path string) string {
	if path == "" {
		return ""
	}
	file := path
	if st, err := os.Stat(path); err == nil && st.IsDir() {
		if file = latestBenchFile(path); file == "" {
			return ""
		}
	}
	rec, err := bench.ReadFile(file)
	if err != nil {
		return fmt.Sprintf("bench · %s · unreadable: %v", filepath.Base(file), err)
	}
	return fmt.Sprintf("bench · %s · commit %s · aggregate %.0f launches/s over %d cells (reps %d)",
		filepath.Base(file), rec.Meta.Commit, rec.AggregateLaunchesPerSec(), len(rec.Cells), rec.Meta.Reps)
}

// latestBenchFile returns the BENCH_<n>.json in dir with the highest n,
// or "" when the directory holds none.
func latestBenchFile(dir string) string {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return ""
	}
	best, bestN := "", -1
	for _, m := range matches {
		var n int
		if _, err := fmt.Sscanf(filepath.Base(m), "BENCH_%d.json", &n); err == nil && n > bestN {
			bestN, best = n, m
		}
	}
	return best
}

// sample is one poll of the server's observability surface.
type sample struct {
	at       time.Time
	server   map[string]int64            // server-level registry
	sessions map[string]map[string]int64 // per-session registries by id
	infos    []client.SessionInfo
	spans    map[string]client.SpanWindow
	crit     map[string]map[string]visibility.CritSummary
}

// fetchSample polls the three endpoints a frame is rendered from.
func fetchSample(c *client.Client) (*sample, error) {
	raw, err := c.Metrics()
	if err != nil {
		return nil, err
	}
	smp := &sample{at: time.Now(), sessions: map[string]map[string]int64{}}
	if err := json.Unmarshal(raw["server"], &smp.server); err != nil {
		return nil, fmt.Errorf("decoding server metrics: %w", err)
	}
	var perSession map[string]json.RawMessage
	if err := json.Unmarshal(raw["sessions"], &perSession); err != nil {
		return nil, fmt.Errorf("decoding session metrics: %w", err)
	}
	for id, body := range perSession {
		var m map[string]int64
		// A session too busy to snapshot reports a string body; skip it for
		// this frame rather than failing the whole poll.
		if err := json.Unmarshal(body, &m); err == nil {
			smp.sessions[id] = m
		}
	}
	if smp.infos, err = c.Sessions(); err != nil {
		return nil, err
	}
	if smp.spans, err = c.DebugSpans(); err != nil {
		return nil, err
	}
	if smp.crit, err = c.DebugCritPath(1); err != nil {
		return nil, err
	}
	return smp, nil
}

// rate converts a counter delta between two samples into a per-second
// rate (0 on the first frame, when there is no previous sample).
func rate(cur, prev int64, dt time.Duration) float64 {
	if dt <= 0 {
		return 0
	}
	return float64(cur-prev) / dt.Seconds()
}

// launches sums every analyzer launch counter in one session's registry
// (the counter lives under the algorithm's own prefix).
func launches(m map[string]int64) int64 {
	var n int64
	for k, v := range m {
		if strings.HasSuffix(k, "/launches") {
			n += v
		}
	}
	return n
}

// traceHitRate renders a session's trace hit rate: the share of launches
// served by trace replay instead of fresh analysis. Replayed launches
// never reach the underlying analyzer, so the session's total launch
// volume is the analyzer count plus the replays. "-" when the session
// has never replayed (tracing off, or no repeats found yet).
func traceHitRate(m map[string]int64) string {
	replayed := m["trace/replayed"]
	if replayed == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f", 100*float64(replayed)/float64(launches(m)+replayed))
}

// render draws one frame.
func render(w io.Writer, target, benchLine string, prev, cur *sample, plain bool) {
	if !plain {
		say(w, "\x1b[2J\x1b[H") // clear screen, home cursor
	}
	dt := time.Duration(0)
	if prev != nil {
		dt = cur.at.Sub(prev.at)
	}
	say(w, "vistop · %s · %s · %d sessions\n", target, cur.at.Format("15:04:05"), len(cur.infos))
	if benchLine != "" {
		say(w, "%s\n", benchLine)
	}
	say(w, "\n")
	renderHTTP(w, prev, cur, dt)
	renderSessions(w, prev, cur, dt)
	renderCrit(w, cur)
	renderHotSpots(w, cur)
}

// renderHTTP tabulates per-endpoint request counts, rates, and latency
// quantiles from the server registry.
func renderHTTP(w io.Writer, prev, cur *sample, dt time.Duration) {
	type row struct {
		name          string
		reqs          int64
		rps           float64
		p50, p95, p99 int64
	}
	var rows []row
	for k, v := range cur.server {
		name, ok := strings.CutPrefix(k, "server/http/")
		if !ok {
			continue
		}
		name, ok = strings.CutSuffix(name, "/requests")
		if !ok || v == 0 {
			continue
		}
		r := row{
			name: name,
			reqs: v,
			p50:  cur.server["server/http/"+name+"/latency_us/p50"],
			p95:  cur.server["server/http/"+name+"/latency_us/p95"],
			p99:  cur.server["server/http/"+name+"/latency_us/p99"],
		}
		if prev != nil {
			r.rps = rate(v, prev.server[k], dt)
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].reqs != rows[j].reqs {
			return rows[i].reqs > rows[j].reqs
		}
		return rows[i].name < rows[j].name
	})
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	say(tw, "ENDPOINT\tREQS\tREQ/S\tP50µs\tP95µs\tP99µs\n")
	for _, r := range rows {
		say(tw, "%s\t%d\t%.1f\t%d\t%d\t%d\n", r.name, r.reqs, r.rps, r.p50, r.p95, r.p99)
	}
	_ = tw.Flush()
	say(w, "\n")
}

// renderSessions tabulates per-tenant queue depth, analysis throughput
// and trace hit rate.
func renderSessions(w io.Writer, prev, cur *sample, dt time.Duration) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	say(tw, "SESSION\tALGO\tQUEUED\tLAUNCHES\tLAUNCH/S\tTRACE%%\tSTATE\n")
	for _, info := range cur.infos {
		m := cur.sessions[info.ID]
		n := launches(m)
		var lps float64
		if prev != nil {
			lps = rate(n, launches(prev.sessions[info.ID]), dt)
		}
		state := "ok"
		if info.Failed != "" {
			state = "FAILED"
		}
		say(tw, "%s\t%s\t%d\t%d\t%.1f\t%s\t%s\n", info.ID, info.Algorithm, info.Queued, n, lps, traceHitRate(m), state)
	}
	_ = tw.Flush()
	say(w, "\n")
}

// renderHotSpots aggregates every session's analysis spans by phase name
// and shows where span time is going — the server-side answer to "what
// is the analysis actually spending its time on". Phases nest
// (raycast.analyze holds raycast.refine holds raycast.bvh_query), so each
// span counts only its self time: its duration less that of the analysis
// spans nested directly inside it in the same session window.
func renderHotSpots(w io.Writer, cur *sample) {
	type spot struct {
		name  string
		count int64
		self  int64 // ns
	}
	agg := map[string]*spot{}
	var grand int64
	for _, win := range cur.spans {
		var spans []obs.Span
		for _, sp := range win.Spans {
			if sp.Cat == "analysis" {
				spans = append(spans, sp)
			}
		}
		self := make([]int64, len(spans))
		for i, sp := range spans {
			self[i] = sp.End - sp.Start
		}
		for i, p := range obs.Nesting(spans) {
			if p >= 0 {
				self[p] -= spans[i].End - spans[i].Start
			}
		}
		for i, sp := range spans {
			s := agg[sp.Name]
			if s == nil {
				s = &spot{name: sp.Name}
				agg[sp.Name] = s
			}
			s.count++
			s.self += self[i]
			grand += self[i]
		}
	}
	spots := make([]*spot, 0, len(agg))
	for _, s := range agg {
		spots = append(spots, s)
	}
	sort.Slice(spots, func(i, j int) bool {
		if spots[i].self != spots[j].self {
			return spots[i].self > spots[j].self
		}
		return spots[i].name < spots[j].name
	})
	if len(spots) > 10 {
		spots = spots[:10]
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	say(tw, "HOT SPOT\tCOUNT\tSELF ms\tSHARE\n")
	for _, s := range spots {
		// Zero-duration span windows would make SHARE divide by zero (NaN);
		// render "-" like the other rate columns instead.
		share := "-"
		if grand > 0 {
			share = fmt.Sprintf("%.0f%%", 100*float64(s.self)/float64(grand))
		}
		say(tw, "%s\t%d\t%.3f\t%s\n", s.name, s.count, float64(s.self)/1e6, share)
	}
	_ = tw.Flush()
}

// renderCrit tabulates each session tree's weighted critical-path
// profile: makespan in virtual time, total work, the parallelism ratio
// (work/makespan — how much speedup the dependence structure admits),
// and the single heaviest critical task with its makespan share.
func renderCrit(w io.Writer, cur *sample) {
	type row struct {
		session, region string
		sum             visibility.CritSummary
	}
	var rows []row
	for id, byRegion := range cur.crit {
		for region, sum := range byRegion {
			rows = append(rows, row{session: id, region: region, sum: sum})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].session != rows[j].session {
			return rows[i].session < rows[j].session
		}
		return rows[i].region < rows[j].region
	})
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	say(tw, "CRIT SESSION\tREGION\tTASKS\tLENGTH\tWORK\tPAR\tBOTTLENECK\n")
	for _, r := range rows {
		bottleneck := "-"
		if len(r.sum.Top) > 0 {
			t := r.sum.Top[0]
			bottleneck = fmt.Sprintf("%s (%.0f%%)", t.Name, t.SharePct)
		}
		say(tw, "%s\t%s\t%d\t%.0f\t%.0f\t%.1f\t%s\n",
			r.session, r.region, r.sum.Tasks, r.sum.Length, r.sum.Work, r.sum.Parallelism, bottleneck)
	}
	_ = tw.Flush()
	say(w, "\n")
}
