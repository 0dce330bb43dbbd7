package autotrace

import (
	"math/rand"
	"testing"
)

// feed pushes a hash stream built from small symbols (each symbol mapped
// to a distinct hash) and returns the detected period after every push.
func feed(d *detector, symbols []int) []int {
	periods := make([]int, len(symbols))
	for i, s := range symbols {
		d.push(0x9e3779b97f4a7c15 * uint64(s+1)) // distinct, well-mixed hashes
		periods[i] = d.detect()
	}
	return periods
}

// repeatPattern appends reps copies of pattern.
func repeatPattern(pattern []int, reps int) []int {
	out := make([]int, 0, len(pattern)*reps)
	for i := 0; i < reps; i++ {
		out = append(out, pattern...)
	}
	return out
}

func TestDetectPeriodAtSecondCopy(t *testing.T) {
	d := newDetector(64, 1, 16, 2)
	periods := feed(d, repeatPattern([]int{1, 2, 3}, 2))
	for i := 0; i < 5; i++ {
		if periods[i] != 0 {
			t.Errorf("push %d: detected period %d before two full copies", i, periods[i])
		}
	}
	if periods[5] != 3 {
		t.Errorf("after two copies of ABC: period %d, want 3", periods[5])
	}
}

func TestDetectSmallestPeriod(t *testing.T) {
	// AAAA...: period 1 qualifies and must win over 2, 3, ...
	d := newDetector(64, 1, 16, 2)
	periods := feed(d, repeatPattern([]int{7}, 8))
	if periods[7] != 1 {
		t.Errorf("constant stream: period %d, want 1", periods[7])
	}
	// ABABABAB: 2 and 4 both repeat; the detector must pick 2.
	d = newDetector(64, 1, 16, 2)
	periods = feed(d, repeatPattern([]int{1, 2}, 4))
	if periods[7] != 2 {
		t.Errorf("ABAB stream: period %d, want 2", periods[7])
	}
}

func TestDetectRespectsMinPeriod(t *testing.T) {
	d := newDetector(64, 3, 16, 2)
	periods := feed(d, repeatPattern([]int{1, 2}, 6))
	// AB repeated: period 2 is below the floor, but 4 (= 2 rounded up to a
	// multiple above MinPeriod) still describes the stream.
	if got := periods[len(periods)-1]; got != 4 {
		t.Errorf("minPeriod=3 over ABAB...: period %d, want 4", got)
	}
}

func TestDetectRespectsMinReps(t *testing.T) {
	d := newDetector(64, 2, 16, 3)
	stream := repeatPattern([]int{1, 2, 3}, 3)
	periods := feed(d, stream)
	for i := 0; i < 8; i++ {
		if periods[i] != 0 {
			t.Errorf("push %d: detected with only %d copies seen, want 3", i, (i+1)/3)
		}
	}
	if periods[8] != 3 {
		t.Errorf("after three copies: period %d, want 3", periods[8])
	}
}

func TestDetectNothingOnDistinctStream(t *testing.T) {
	d := newDetector(64, 1, 16, 2)
	stream := make([]int, 64)
	for i := range stream {
		stream[i] = i
	}
	for i, p := range feed(d, stream) {
		if p != 0 {
			t.Fatalf("push %d: spurious period %d on an all-distinct stream", i, p)
		}
	}
}

// TestDetectSurvivesEviction streams noise far beyond the window, then a
// repeating pattern; compaction must not corrupt the rolling hashes.
func TestDetectSurvivesEviction(t *testing.T) {
	d := newDetector(32, 1, 8, 2)
	noise := make([]int, 1000)
	for i := range noise {
		noise[i] = 100 + i // all distinct
	}
	feed(d, noise)
	periods := feed(d, repeatPattern([]int{1, 2, 3, 4}, 2))
	if got := periods[len(periods)-1]; got != 4 {
		t.Errorf("pattern after heavy eviction: period %d, want 4", got)
	}
}

// TestDetectCandidateAlignment checks that the candidate is the final
// period of the stream in order, so the next launch continues at index 0.
func TestDetectCandidateAlignment(t *testing.T) {
	d := newDetector(64, 1, 16, 2)
	pattern := []int{5, 9, 2}
	feed(d, repeatPattern(pattern, 3))
	p := d.detect()
	if p != 3 {
		t.Fatalf("period %d, want 3", p)
	}
	cand := d.candidate(p)
	for i, s := range pattern {
		want := 0x9e3779b97f4a7c15 * uint64(s+1)
		if cand[i] != want {
			t.Errorf("candidate[%d] = %#x, want hash of symbol %d", i, cand[i], s)
		}
	}
}

// TestDetectMaxPeriodClamp verifies periods above maxPeriod are ignored.
func TestDetectMaxPeriodClamp(t *testing.T) {
	d := newDetector(64, 1, 3, 2)
	periods := feed(d, repeatPattern([]int{1, 2, 3, 4}, 4))
	for i, p := range periods {
		if p != 0 {
			t.Fatalf("push %d: period %d detected above maxPeriod=3", i, p)
		}
	}
}

// TestDetectOffsetPattern: a repeat that starts mid-stream (prefix noise)
// is still found once two clean copies are in the window.
func TestDetectOffsetPattern(t *testing.T) {
	d := newDetector(64, 2, 16, 2)
	stream := append([]int{90, 91, 92, 93, 94}, repeatPattern([]int{1, 2, 3}, 2)...)
	periods := feed(d, stream)
	if got := periods[len(periods)-1]; got != 3 {
		t.Errorf("pattern after noise prefix: period %d, want 3", got)
	}
	for i := 0; i < len(stream)-1; i++ {
		if periods[i] != 0 {
			t.Errorf("push %d: premature period %d", i, periods[i])
		}
	}
}

// scanPeriods is the exhaustive reference for detect: every period from
// minPeriod up, each confirmed element by element.
func scanPeriods(d *detector) int {
	n := len(d.hs)
	for p := d.minPeriod; p <= d.maxPeriod; p++ {
		if n < d.minReps*p {
			return 0
		}
		same := true
		for k := n - d.minReps*p; k < n-p && same; k++ {
			same = d.hs[k] == d.hs[k+p]
		}
		if same {
			return p
		}
	}
	return 0
}

// TestDetectMatchesScan holds detect, which tries only the periods at which
// the newest hash recurs, to the exhaustive scan on random low-alphabet
// streams (so repeats, near-repeats and long occurrence chains are common)
// with random window, minPeriod, maxPeriod and minReps, each stream long
// enough to cross several compactions.
func TestDetectMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		window := 2 * (4 + rng.Intn(60))
		minReps := 2 + rng.Intn(3)
		maxPeriod := 1 + rng.Intn(window/minReps)
		minPeriod := 1 + rng.Intn(3)
		alphabet := 1 + rng.Intn(4)
		d := newDetector(window, minPeriod, maxPeriod, minReps)
		var motif []int
		for i := 0; i < 6*window; i++ {
			// Alternate noise with runs of a repeated motif, so qualifying
			// periods of every length show up, not only the short ones
			// random symbols produce.
			if rng.Intn(window) == 0 {
				motif = make([]int, 1+rng.Intn(maxPeriod))
				for k := range motif {
					motif[k] = rng.Intn(alphabet)
				}
			}
			s := rng.Intn(alphabet)
			if motif != nil && rng.Intn(16) != 0 {
				s = motif[i%len(motif)]
			}
			d.push(0x9e3779b97f4a7c15 * uint64(s+1))
			if got, want := d.detect(), scanPeriods(d); got != want {
				t.Fatalf("trial %d (window %d, periods [%d,%d], minReps %d), push %d: detect %d, scan %d",
					trial, window, minPeriod, maxPeriod, minReps, i, got, want)
			}
		}
	}
}

// BenchmarkDetect times one push plus detect. The aperiodic leg's stream
// never repeats: the autotracer's cost on every launch of a loop-free
// program. The near-periodic leg repeats a 100-launch loop body in which
// one launch is unique in each iteration, so nearly every push tests a
// period that the unique launch fails: the cost copiesMatch keeps low.
func BenchmarkDetect(b *testing.B) {
	const body = 100
	for _, leg := range []struct {
		name string
		hash func(i int) uint64
	}{
		{"aperiodic", func(i int) uint64 { return uint64(i + 1) }},
		{"near-periodic", func(i int) uint64 {
			if i%body == body/2 {
				return uint64(body + i) // unique in each iteration
			}
			return uint64(i%body + 1)
		}},
	} {
		b.Run(leg.name, func(b *testing.B) {
			d := newDetector(window, minPeriod, window/(2*minReps), minReps)
			for i := 0; i < b.N; i++ {
				d.push(0x9e3779b97f4a7c15 * leg.hash(i))
				if d.detect() != 0 {
					b.Fatal("period detected on a stream that never repeats a whole period")
				}
			}
		})
	}
}
