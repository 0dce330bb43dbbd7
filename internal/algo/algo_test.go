package algo_test

import (
	"testing"

	"visibility/internal/algo"
	"visibility/internal/core"
	"visibility/internal/field"
	"visibility/internal/geometry"
	"visibility/internal/index"
	"visibility/internal/region"
)

func TestNamesAndLookup(t *testing.T) {
	names := algo.Names()
	want := []string{"paint", "raycast", "warnock"}
	if len(names) != len(want) {
		t.Fatalf("Names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names = %v, want %v", names, want)
		}
	}

	fs := field.NewSpace()
	fs.Add("v")
	tree := region.NewTree("A", index.FromRect(geometry.R1(0, 9)), fs)
	for _, name := range names {
		newAn, err := algo.Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%s): %v", name, err)
		}
		an := newAn(tree, core.Options{})
		if an == nil {
			t.Fatalf("constructor for %s returned nil", name)
		}
		// The reported name matches the registry key.
		if an.Name() != name {
			t.Errorf("analyzer %q reports name %q", name, an.Name())
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := algo.Lookup("zbuffer"); err == nil {
		t.Fatal("expected error for unknown algorithm")
	}
}
