// Package relation provides the relational substrate for TRAPP/AG: schemas,
// tuples whose attribute values are guaranteed bounds (intervals), cached
// tables, and ordered indexes over bound endpoints.
//
// A cached table is the data-cache-side copy of a master table (paper
// section 3): each bounded attribute stores an interval [L, H] guaranteed to
// contain the master value, exact attributes store point intervals, and each
// tuple carries the cost of refreshing it from its source.
package relation

import (
	"fmt"
)

// Kind distinguishes exact attributes (always point intervals, e.g. keys or
// dimensions) from bounded attributes (replicated numeric measures).
type Kind int8

const (
	// Exact attributes hold precise values known to the cache.
	Exact Kind = iota
	// Bounded attributes hold guaranteed bounds on remote master values.
	Bounded
)

// String returns "exact" or "bounded".
func (k Kind) String() string {
	if k == Exact {
		return "exact"
	}
	return "bounded"
}

// Column describes one attribute of a relation.
type Column struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of named columns. Schemas are immutable after
// construction and safe for concurrent use.
type Schema struct {
	cols    []Column
	byName  map[string]int
	bounded []int // indexes of the bounded columns, schema order
}

// NewSchema builds a schema from the given columns. It panics on duplicate
// or empty column names, which indicate programmer error.
func NewSchema(cols ...Column) *Schema {
	s := &Schema{
		cols:   make([]Column, len(cols)),
		byName: make(map[string]int, len(cols)),
	}
	copy(s.cols, cols)
	for i, c := range cols {
		if c.Name == "" {
			panic("relation: empty column name")
		}
		if _, dup := s.byName[c.Name]; dup {
			panic(fmt.Sprintf("relation: duplicate column %q", c.Name))
		}
		s.byName[c.Name] = i
		if c.Kind == Bounded {
			s.bounded = append(s.bounded, i)
		}
	}
	return s
}

// NumColumns returns the number of columns.
func (s *Schema) NumColumns() int { return len(s.cols) }

// Column returns the i'th column.
func (s *Schema) Column(i int) Column { return s.cols[i] }

// Lookup returns the index of the named column and whether it exists.
func (s *Schema) Lookup(name string) (int, bool) {
	i, ok := s.byName[name]
	return i, ok
}

// MustLookup returns the index of the named column, panicking if absent.
// Use for statically known column names (tests, examples, fixtures).
func (s *Schema) MustLookup(name string) int {
	i, ok := s.byName[name]
	if !ok {
		panic(fmt.Sprintf("relation: no column %q", name))
	}
	return i
}

// ColumnNames returns the column names in order.
func (s *Schema) ColumnNames() []string {
	names := make([]string, len(s.cols))
	for i, c := range s.cols {
		names[i] = c.Name
	}
	return names
}

// BoundedColumns returns the indexes of all bounded columns in schema
// order. The slice is computed once in NewSchema and shared by every
// caller: it must not be modified.
func (s *Schema) BoundedColumns() []int { return s.bounded }
