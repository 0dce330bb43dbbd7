// Package fault is the deterministic fault-injection plane: a catalog of
// named injection sites threaded through the runtime (forced
// equivalence-set splits and migrations, forced trace invalidation, and
// the serving layer's worker panic), each gated by a seeded Plan of
// per-site rules. A site is kept only where it reaches a recovery path no
// plain test reaches; DESIGN §5.4 lists, per site, a seeded bug that only
// the armed site catches.
//
// Determinism is the whole point. Every site draws from its own
// splitmix64 stream derived from (plan seed, site name), so a site's
// fire/no-fire sequence depends only on its own evaluation order — one
// component's faults never perturb another's — and replaying the same
// plan over the same workload reproduces the identical fault sequence.
// Every fire is journaled to the flight recorder (KindFaultInject), so an
// injected fault is visible in the recorded event stream next to the
// runtime events it provoked, and a failing run's plan string is a
// complete reproduction recipe.
//
// A nil *Injector is valid and never fires, so injection points cost one
// pointer test in production.
package fault

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"visibility/internal/obs/recorder"
)

// Site is a named deterministic injection point. The four constants below
// are the complete set; Parse rejects any other name.
type Site string

// The injection sites. A site is journaled by name in flight-recorder
// events (fault_inject site=...).
const (
	// EqSplit forces an equivalence-set refinement that the analysis did
	// not need: a set fully covered by the requested region is split into
	// two fragments anyway. Semantics-preserving by construction; shakes
	// out code that secretly depends on sets staying whole. Arg: the
	// set's point volume.
	EqSplit Site = "analyzer.eqset.split"
	// EqMigrate forces the ray-casting analyzer to rebuild its
	// acceleration structure mid-stream — re-bucketing against the same
	// partition, or abandoning it for the K-d fallback — the migration
	// race of §7.1. Arg: task ID.
	EqMigrate Site = "analyzer.eqset.migrate"
	// WorkerPanic crashes a session job mid-request, inside its recovery
	// scope, exercising the failure-latch path and the 409 the request
	// answers with. Arg: session seq.
	WorkerPanic Site = "server.worker.panic"
	// TraceInvalidate forces an automatic trace to invalidate mid-replay:
	// the autotracer aborts the replaying instance as if its structure had
	// diverged, the memoized results are dropped, and every replayed
	// launch is re-analyzed through the wrapped analyzer. Recovery must be
	// byte-identical to a run that never traced. Arg: task ID.
	TraceInvalidate Site = "trace.invalidate"
)

// Sites returns every site.
func Sites() []Site { return []Site{EqSplit, EqMigrate, WorkerPanic, TraceInvalidate} }

// Rule schedules one site's fires. The zero value never fires. Prob and
// Every compose: the site fires when either triggers. All triggers
// respect After (evaluations skipped first) and Max (total fire cap).
type Rule struct {
	// Prob fires independently with this probability per evaluation,
	// drawn from the site's private deterministic stream.
	Prob float64
	// Every fires on every Nth matching evaluation (after After).
	Every int
	// After skips the first N matching evaluations entirely.
	After int
	// Max caps total fires; 0 means unlimited.
	Max int
	// Arg, when ArgSet, restricts the rule to evaluations whose argument
	// equals it — e.g. one session's seq, one task ID. Other evaluations
	// do not advance the site's counters or stream.
	Arg    int64
	ArgSet bool
}

// Plan is a seed plus per-site rules — the complete, replayable
// description of a fault campaign.
type Plan struct {
	Seed  int64
	Rules map[Site]Rule
}

// String renders the plan in its canonical grammar:
//
//	seed=<n>;<site>=<k>=<v>[,<k>=<v>...];...
//
// with sites sorted and clauses in fixed order (p, every, after, max,
// arg), so Parse(p.String()) reproduces p exactly.
func (p Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d", p.Seed)
	sites := make([]string, 0, len(p.Rules))
	for s := range p.Rules {
		sites = append(sites, string(s))
	}
	sort.Strings(sites)
	for _, s := range sites {
		r := p.Rules[Site(s)]
		var clauses []string
		if r.Prob > 0 {
			clauses = append(clauses, "p="+strconv.FormatFloat(r.Prob, 'g', -1, 64))
		}
		if r.Every > 0 {
			clauses = append(clauses, "every="+strconv.Itoa(r.Every))
		}
		if r.After > 0 {
			clauses = append(clauses, "after="+strconv.Itoa(r.After))
		}
		if r.Max > 0 {
			clauses = append(clauses, "max="+strconv.Itoa(r.Max))
		}
		if r.ArgSet {
			clauses = append(clauses, "arg="+strconv.FormatInt(r.Arg, 10))
		}
		fmt.Fprintf(&b, ";%s=%s", s, strings.Join(clauses, ","))
	}
	return b.String()
}

// Parse parses the plan grammar emitted by String. The empty string is
// the empty plan (seed 0, no rules — an injector that never fires). A
// second seed clause, like a second rule for one site, is an error rather
// than a silent override.
func Parse(s string) (Plan, error) {
	p := Plan{Rules: make(map[Site]Rule)}
	s = strings.TrimSpace(s)
	if s == "" {
		return p, nil
	}
	seeded := false
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, spec, ok := strings.Cut(part, "=")
		if !ok {
			return Plan{}, fmt.Errorf("fault: clause %q is not <site>=<spec>", part)
		}
		if name == "seed" {
			if seeded {
				return Plan{}, fmt.Errorf("fault: duplicate seed clause %q", part)
			}
			seed, err := strconv.ParseInt(spec, 10, 64)
			if err != nil {
				return Plan{}, fmt.Errorf("fault: bad seed %q", spec)
			}
			p.Seed, seeded = seed, true
			continue
		}
		site := Site(name)
		if !slices.Contains(Sites(), site) {
			return Plan{}, fmt.Errorf("fault: unknown site %q (have %v)", name, Sites())
		}
		if _, dup := p.Rules[site]; dup {
			return Plan{}, fmt.Errorf("fault: duplicate rules for site %q", name)
		}
		var r Rule
		for _, clause := range strings.Split(spec, ",") {
			k, v, ok := strings.Cut(clause, "=")
			if !ok {
				return Plan{}, fmt.Errorf("fault: clause %q of site %s is not <k>=<v>", clause, name)
			}
			switch k {
			case "p":
				f, err := strconv.ParseFloat(v, 64)
				if err != nil || !(f >= 0 && f <= 1) { // written so NaN fails
					return Plan{}, fmt.Errorf("fault: site %s probability %q outside [0,1]", name, v)
				}
				r.Prob = f
			case "every", "after", "max":
				n, err := strconv.Atoi(v)
				if err != nil || n < 0 {
					return Plan{}, fmt.Errorf("fault: site %s %s=%q is not a non-negative integer", name, k, v)
				}
				switch k {
				case "every":
					r.Every = n
				case "after":
					r.After = n
				case "max":
					r.Max = n
				}
			case "arg":
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					return Plan{}, fmt.Errorf("fault: site %s arg=%q is not an integer", name, v)
				}
				r.Arg, r.ArgSet = n, true
			default:
				return Plan{}, fmt.Errorf("fault: site %s has unknown clause key %q", name, k)
			}
		}
		if r.Prob == 0 && r.Every == 0 {
			return Plan{}, fmt.Errorf("fault: site %s rule has no trigger (need p= or every=)", name)
		}
		p.Rules[site] = r
	}
	return p, nil
}

// siteState is one site's deterministic decision stream.
type siteState struct {
	rule  Rule
	rng   uint64 // splitmix64 state, advanced once per matching evaluation
	evals int64
	fires int64
}

// next advances the stream by one draw.
func (st *siteState) next() uint64 {
	st.rng += 0x9e3779b97f4a7c15
	z := st.rng
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Injector evaluates a Plan at runtime. A nil *Injector is valid and
// never fires. Safe for concurrent use (one mutex; injection points are
// cold paths by construction — they exist to break things, not to be
// fast).
type Injector struct {
	plan string // the plan's canonical string

	mu    sync.Mutex
	rec   *recorder.Recorder  // guarded by mu
	sites map[Site]*siteState // guarded by mu; immutable key set
}

// New builds an injector for plan. Sites without rules never fire.
func New(plan Plan) *Injector {
	sites := make(map[Site]*siteState, len(plan.Rules))
	for site, rule := range plan.Rules {
		// Seed each site's stream from the plan seed and the site name, so
		// streams are mutually independent and stable across catalog
		// growth.
		h := uint64(14695981039346656037) // FNV-1a offset basis
		for _, c := range []byte(site) {
			h ^= uint64(c)
			h *= 1099511628211
		}
		sites[site] = &siteState{rule: rule, rng: h ^ uint64(plan.Seed)}
	}
	return &Injector{plan: plan.String(), sites: sites}
}

// NewFromString is New over Parse.
func NewFromString(s string) (*Injector, error) {
	plan, err := Parse(s)
	if err != nil {
		return nil, err
	}
	return New(plan), nil
}

// String renders the injector's plan string ("" when nil).
func (in *Injector) String() string {
	if in == nil {
		return ""
	}
	return in.plan
}

// SetRecorder routes fire events into rec's flight-recorder ring, so
// injected faults appear in the recorded event stream. Last writer wins;
// nil-safe on both sides.
func (in *Injector) SetRecorder(rec *recorder.Recorder) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.rec = rec
	in.mu.Unlock()
}

// Fire evaluates site once with the given argument and reports whether
// the fault fires. Evaluations whose argument a rule's arg= clause
// excludes do not advance the site's counters or stream.
func (in *Injector) Fire(site Site, arg int64) bool {
	fired, _ := in.FireValue(site, arg)
	return fired
}

// FireValue is Fire, additionally returning a deterministic payload draw
// (a split point, a migration target) when the fault fires.
func (in *Injector) FireValue(site Site, arg int64) (bool, uint64) {
	if in == nil {
		return false, 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	st := in.sites[site]
	if st == nil {
		return false, 0
	}
	if st.rule.ArgSet && arg != st.rule.Arg {
		return false, 0
	}
	st.evals++
	if st.rule.Max > 0 && st.fires >= int64(st.rule.Max) {
		return false, 0
	}
	if st.evals <= int64(st.rule.After) {
		return false, 0
	}
	fired := false
	if st.rule.Every > 0 && (st.evals-int64(st.rule.After))%int64(st.rule.Every) == 0 {
		fired = true
	}
	if st.rule.Prob > 0 {
		// One draw per evaluation, fired or not, keeps the stream aligned
		// with the evaluation sequence alone.
		if float64(st.next()>>11)/(1<<53) < st.rule.Prob {
			fired = true
		}
	}
	if !fired {
		return false, 0
	}
	st.fires++
	in.rec.LogS(recorder.KindFaultInject, arg, string(site))
	return true, st.next()
}

// Crash panics with a recognizable message when site fires. Callers place
// it inside their panic-recovery scope, so an injected crash takes the
// same path a real one would.
func (in *Injector) Crash(site Site, arg int64) {
	if in.Fire(site, arg) {
		panic(fmt.Sprintf("fault: injected crash at %s", site))
	}
}

// Fires returns how many times site has fired (0 when nil).
func (in *Injector) Fires(site Site) int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if st := in.sites[site]; st != nil {
		return st.fires
	}
	return 0
}

// Counts returns fires per site for every site with a rule, for chaos
// reports.
func (in *Injector) Counts() map[Site]int64 {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[Site]int64, len(in.sites))
	for s, st := range in.sites {
		out[s] = st.fires
	}
	return out
}
