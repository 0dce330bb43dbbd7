package dist_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"visibility/internal/algo"
	"visibility/internal/cluster"
	"visibility/internal/core"
	"visibility/internal/dist"
	"visibility/internal/field"
	"visibility/internal/geometry"
	"visibility/internal/index"
	"visibility/internal/obs"
	"visibility/internal/privilege"
	"visibility/internal/region"
)

func lineSetup(nodes int) (*region.Tree, *region.Partition) {
	fs := field.NewSpace()
	fs.Add("v")
	n := int64(nodes)
	tree := region.NewTree("A", index.FromRect(geometry.R1(0, 100*n-1)), fs)
	pieces := make([]index.Space, nodes)
	for i := int64(0); i < n; i++ {
		pieces[i] = index.FromRect(geometry.R1(i*100, (i+1)*100-1))
	}
	return tree, tree.Root.Partition("P", pieces)
}

func newDriver(t *testing.T, nodes int, dcr bool) (*dist.Driver, *cluster.Machine, *region.Tree, *region.Partition) {
	t.Helper()
	tree, p := lineSetup(nodes)
	m := cluster.New(cluster.DefaultConfig(nodes))
	newAn, err := algo.Lookup("raycast")
	if err != nil {
		t.Fatal(err)
	}
	owner := dist.OwnerByPartition(p, nodes)
	d := dist.New(m, tree, dist.NewAnalyzerFunc(newAn), owner, dist.DefaultConfig(dcr))
	return d, m, tree, p
}

func TestIndependentTasksOverlapInTime(t *testing.T) {
	d, m, tree, p := newDriver(t, 4, true)
	s := core.NewStream(tree)
	for i := 0; i < 4; i++ {
		d.Launch(s.Launch("w", core.Req{Region: p.Subregions[i], Field: 0, Priv: privilege.Writes()}), i, 1.0)
	}
	total := d.Barrier()
	// Four 1-second tasks on four nodes: far less than 4 seconds.
	if total > 1.5 {
		t.Errorf("independent tasks took %v, expected ~1s", total)
	}
	if m.NodeBusy(0) != 1.0 || m.NodeBusy(3) != 1.0 {
		t.Error("each node should have executed one task")
	}
}

func TestDependentTasksSerialize(t *testing.T) {
	d, _, tree, p := newDriver(t, 2, true)
	s := core.NewStream(tree)
	d.Launch(s.Launch("w", core.Req{Region: p.Subregions[0], Field: 0, Priv: privilege.Writes()}), 0, 1.0)
	// The read on node 1 needs the write's data: must finish after t=2.
	d.Launch(s.Launch("r", core.Req{Region: p.Subregions[0], Field: 0, Priv: privilege.Reads()}), 1, 1.0)
	total := d.Barrier()
	if total < 2.0 {
		t.Errorf("dependent tasks overlapped: %v", total)
	}
}

func TestDataMovesOverNetwork(t *testing.T) {
	d, m, tree, p := newDriver(t, 2, true)
	s := core.NewStream(tree)
	d.Launch(s.Launch("w", core.Req{Region: p.Subregions[0], Field: 0, Priv: privilege.Writes()}), 0, 0.001)
	before, bytesBefore := m.Messages()
	d.Launch(s.Launch("r", core.Req{Region: p.Subregions[0], Field: 0, Priv: privilege.Reads()}), 1, 0.001)
	after, bytesAfter := m.Messages()
	if after <= before {
		t.Error("remote read should have sent messages")
	}
	// 100 points at the default 8 bytes/point.
	if bytesAfter-bytesBefore < 800 {
		t.Errorf("expected >= 800 data bytes, got %d", bytesAfter-bytesBefore)
	}
}

func TestNoDCRFunnelsAnalysis(t *testing.T) {
	// The same independent workload takes longer without DCR at scale,
	// because all analysis queues on node 0.
	iterTime := func(dcr bool, nodes int) float64 {
		d, _, tree, p := newDriver(t, nodes, dcr)
		s := core.NewStream(tree)
		for iter := 0; iter < 3; iter++ {
			for i := 0; i < nodes; i++ {
				d.Launch(s.Launch("w", core.Req{Region: p.Subregions[i], Field: 0, Priv: privilege.Writes()}), i, 0.0001)
			}
		}
		return d.Barrier()
	}
	withDCR := iterTime(true, 64)
	without := iterTime(false, 64)
	if without <= withDCR {
		t.Errorf("no-DCR (%v) should be slower than DCR (%v) at 64 nodes", without, withDCR)
	}
}

func TestOwnerByPartition(t *testing.T) {
	tree, p := lineSetup(4)
	owner := dist.OwnerByPartition(p, 4)
	if got := owner(p.Subregions[2].Space); got != 2 {
		t.Errorf("owner of piece 2 = %d", got)
	}
	// A space spanning pieces is owned by the piece holding its first
	// point.
	span := index.FromRect(geometry.R1(150, 250))
	if got := owner(span); got != 1 {
		t.Errorf("owner of spanning space = %d, want 1", got)
	}
	if got := owner(index.Empty(1)); got != 0 {
		t.Errorf("owner of empty = %d, want 0", got)
	}
	_ = tree
}

func TestOwnerByPartitionModuloNodes(t *testing.T) {
	// More pieces than nodes wraps owners around.
	tree, p := lineSetup(8)
	_ = tree
	owner := dist.OwnerByPartition(p, 4)
	if got := owner(p.Subregions[5].Space); got != 1 {
		t.Errorf("owner of piece 5 on 4 nodes = %d, want 1", got)
	}
}

func TestBarrierMonotone(t *testing.T) {
	d, _, tree, p := newDriver(t, 2, false)
	s := core.NewStream(tree)
	if d.Barrier() != 0 {
		t.Error("empty barrier should be 0")
	}
	d.Launch(s.Launch("w", core.Req{Region: p.Subregions[0], Field: 0, Priv: privilege.Writes()}), 0, 0.5)
	b1 := d.Barrier()
	d.Launch(s.Launch("w2", core.Req{Region: p.Subregions[0], Field: 0, Priv: privilege.Writes()}), 0, 0.5)
	b2 := d.Barrier()
	if !(b1 >= 0.5 && b2 >= b1+0.5) {
		t.Errorf("barriers not monotone: %v, %v", b1, b2)
	}
}

// TestFetchDedupAcrossIterations verifies on-demand replication: the first
// iteration of a warnock-analyzed loop sends far more messages than later
// iterations, whose lookups hit per-node caches and memoized sets.
func TestFetchDedupAcrossIterations(t *testing.T) {
	tree, p := lineSetup(16)
	m := cluster.New(cluster.DefaultConfig(16))
	newAn, _ := algo.Lookup("warnock")
	owner := dist.OwnerByPartition(p, 16)
	d := dist.New(m, tree, dist.NewAnalyzerFunc(newAn), owner, dist.DefaultConfig(true))
	s := core.NewStream(tree)

	iterMsgs := func() int64 {
		before, _ := m.Messages()
		for i := 0; i < 16; i++ {
			d.Launch(s.Launch("w", core.Req{Region: p.Subregions[i], Field: 0, Priv: privilege.Writes()}), i, 0.001)
		}
		after, _ := m.Messages()
		return after - before
	}
	first := iterMsgs()
	iterMsgs()
	third := iterMsgs()
	if third >= first {
		t.Errorf("steady-state messages (%d) should be below first-iteration messages (%d)", third, first)
	}
}

func TestMappers(t *testing.T) {
	if (dist.OwnerMapper{}).Place(nil, 7, 4) != 3 {
		t.Error("owner mapper should follow the hint modulo nodes")
	}
}

// TestTraceLabels pins the slice names of the exported trace: Launch only
// formats them while the machine journals, and then they must name the
// launch on its analysis, remote-touch and execution slices.
func TestTraceLabels(t *testing.T) {
	d, m, tree, p := newDriver(t, 4, false)
	m.EnableTracing()
	s := core.NewStream(tree)
	d.Launch(s.Launch("w", core.Req{Region: p.Subregions[2], Field: 0, Priv: privilege.Writes()}), 2, 1.0)
	tw := obs.NewTraceWriter()
	m.ExportTrace(tw)
	var buf bytes.Buffer
	if err := tw.Write(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"name": "analyze w#0"`, `"name": "touch w#0"`, `"name": "w#0"`} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("exported trace lacks %s", want)
		}
	}
}

// planFrom is a stub analyzer whose every plan names one producer, which
// need not have been launched.
type planFrom struct {
	producer int
	stats    core.Stats
}

func (a *planFrom) Name() string       { return "planFrom" }
func (a *planFrom) Stats() *core.Stats { return &a.stats }
func (a *planFrom) Analyze(t *core.Task) *core.Result {
	v := core.Visible{Task: a.producer, Priv: privilege.Writes(), Pts: t.Reqs[0].Region.Space}
	return &core.Result{Plans: [][]core.Visible{{v}}}
}

// TestPlanFromUnlaunchedTaskPanics checks that a plan naming a task the
// driver never launched is refused by name rather than gated on whatever
// the machine scheduled first.
func TestPlanFromUnlaunchedTaskPanics(t *testing.T) {
	tree, p := lineSetup(2)
	an := &planFrom{producer: 7}
	newAn := func(*region.Tree, core.Options) core.Analyzer { return an }
	d := dist.New(cluster.New(cluster.DefaultConfig(2)), tree, newAn, dist.OwnerByPartition(p, 2), dist.DefaultConfig(true))
	s := core.NewStream(tree)
	read := func() {
		d.Launch(s.Launch("r", core.Req{Region: p.Subregions[1], Field: 0, Priv: privilege.Reads()}), 1, 1.0)
	}
	refused := func(id int) {
		t.Helper()
		an.producer = id
		defer func() {
			msg, _ := recover().(string)
			if want := fmt.Sprintf("plan references task %d,", id); !strings.Contains(msg, want) {
				t.Errorf("plan from task %d: recovered %q, want a panic containing %q", id, msg, want)
			}
		}()
		read()
	}
	an.producer = core.InitialTask
	read()      // task 0: the initial contents are always available
	refused(7)  // task 1, planning from a task not yet created
	refused(1)  // task 2, planning from the launch that panicked
	refused(-5) // task 3
	an.producer = 0
	read()     // task 4, planning from a launched task
	refused(2) // below the highest launched ID, but never launched
}
