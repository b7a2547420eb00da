package types

import (
	"fmt"
	"strings"
)

// Column describes one attribute of a relation.
type Column struct {
	Name string
	Type Kind
}

// Schema is an ordered list of columns.
type Schema struct {
	Columns []Column
	byName  map[string]int
}

// NewSchema builds a schema from columns. Column names are matched
// case-insensitively, following SQL convention.
func NewSchema(cols ...Column) *Schema {
	s := &Schema{Columns: cols, byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		s.byName[strings.ToLower(c.Name)] = i
	}
	return s
}

// Arity returns the number of columns.
func (s *Schema) Arity() int { return len(s.Columns) }

// Index returns the position of the named column, or -1.
func (s *Schema) Index(name string) int {
	if s.byName == nil {
		return -1
	}
	if i, ok := s.byName[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// Validate checks a tuple against the schema: correct arity and each value
// either NULL or of the declared type (with int/date interchangeable).
func (s *Schema) Validate(t Tuple) error {
	if len(t) != len(s.Columns) {
		return fmt.Errorf("types: tuple arity %d does not match schema arity %d", len(t), len(s.Columns))
	}
	for i, v := range t {
		if v.IsNull() {
			continue
		}
		want := s.Columns[i].Type
		got := v.Kind()
		if got == want {
			continue
		}
		if (got == KindInt && want == KindDate) || (got == KindDate && want == KindInt) {
			continue
		}
		return fmt.Errorf("types: column %s expects %s, got %s", s.Columns[i].Name, want, got)
	}
	return nil
}

// String renders the schema as (name TYPE, ...).
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", c.Name, c.Type)
	}
	b.WriteByte(')')
	return b.String()
}
