// Package field provides field spaces.
//
// A region stores multiple named fields (e.g. Node.up and Node.down in the
// paper's Figure 1), and the coherence analyses run independently per field:
// two tasks touching different fields of the same points never interfere.
package field

import "fmt"

// ID identifies a field within a Space. IDs are dense small integers
// assigned in creation order.
type ID int

// MaxFields is the maximum number of fields in one field space. Field
// layout is a static program property, so a space that outgrows it is a
// programming error, caught at Add before any per-field state exists.
const MaxFields = 64

// Space is a collection of named fields, analogous to a Legion field space.
type Space struct {
	names  []string
	byName map[string]ID
}

// NewSpace creates an empty field space.
func NewSpace() *Space {
	return &Space{byName: make(map[string]ID)}
}

// Add creates a new field with the given name and returns its ID. Adding a
// duplicate name or exceeding MaxFields panics: field layout is a static
// program property, so these are programming errors.
func (s *Space) Add(name string) ID {
	if _, dup := s.byName[name]; dup {
		panic(fmt.Sprintf("field: duplicate field %q", name))
	}
	if len(s.names) >= MaxFields {
		panic("field: too many fields")
	}
	id := ID(len(s.names))
	s.names = append(s.names, name)
	s.byName[name] = id
	return id
}

// Lookup returns the ID for name; ok is false if the field does not exist.
func (s *Space) Lookup(name string) (ID, bool) {
	id, ok := s.byName[name]
	return id, ok
}

// Name returns the name of field id.
func (s *Space) Name(id ID) string { return s.names[id] }

// Len returns the number of fields.
func (s *Space) Len() int { return len(s.names) }
