package sched

import (
	"fmt"
	"testing"

	"visibility/internal/core"
	"visibility/internal/geometry"
	"visibility/internal/index"
	"visibility/internal/privilege"
)

// planSignature is built by hand on every launch; its bytes are defined by
// this format string, initial-contents producer (task -1) included.
func TestPlanSignatureFormat(t *testing.T) {
	plan := []core.Visible{
		{Task: core.InitialTask, Req: 0, Priv: privilege.Writes(), Pts: index.FromRect(geometry.R1(0, 17))},
		{Task: 12, Req: 3, Priv: privilege.Reduces(privilege.OpSum), Pts: index.FromRects(2, geometry.R2(0, 0, 9, 4), geometry.R2(0, 5, 4, 9))},
		{Task: 1 << 40, Req: 1, Priv: privilege.Reads(), Pts: index.Empty(3)},
	}
	want := ""
	for _, v := range plan {
		want += fmt.Sprintf("%d.%d%s:%s;", v.Task, v.Req, v.Priv, v.Pts.Key())
	}
	if got := planSignature(plan); got != want {
		t.Errorf("planSignature = %q, want %q", got, want)
	}
	if got := planSignature(nil); got != "" {
		t.Errorf("planSignature(nil) = %q", got)
	}
}
