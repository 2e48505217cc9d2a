package predicate

import (
	"math"

	"trapp/internal/interval"
	"trapp/internal/relation"
)

// Class is the three-way classification of a tuple with respect to a
// selection predicate over bounded values (paper section 6).
type Class int8

const (
	// Minus (T−): the tuple cannot satisfy the predicate.
	Minus Class = iota
	// Maybe (T?): the tuple may or may not satisfy the predicate.
	Maybe
	// Plus (T+): the tuple is guaranteed to satisfy the predicate.
	Plus
)

// String returns "T-", "T?", or "T+".
func (c Class) String() string {
	switch c {
	case Minus:
		return "T-"
	case Plus:
		return "T+"
	default:
		return "T?"
	}
}

// ClassifyTuple classifies one tuple: Certain(P) ⇒ Plus,
// Possible(P) ∧ ¬Certain(P) ⇒ Maybe, otherwise Minus.
func ClassifyTuple(p Expr, tu *relation.Tuple) Class {
	switch p.Eval(tu) {
	case interval.True:
		return Plus
	case interval.Unknown:
		return Maybe
	default:
		return Minus
	}
}

// Restriction computes an interval I such that whenever the predicate
// holds for a tuple, the tuple's value in column col lies in I. It returns
// interval.Unbounded when the predicate imposes no (derivable) restriction.
//
// This implements the refinement of Appendix D (footnote 4): when the
// selection predicate restricts the aggregation column, the bounds of T?
// tuples can be shrunk by intersecting with the restriction before the
// bounded answer or CHOOSE_REFRESH computation — e.g. aggregating latency
// under "latency > 10" allows lower bounds below 10 to be raised to 10.
//
// The derivation is conservative: comparisons against non-constant operands
// and negations contribute no restriction. Conjunction intersects and
// disjunction unions the operand restrictions, both of which preserve
// soundness.
func Restriction(p Expr, col int) interval.Interval {
	switch e := p.(type) {
	case *Cmp:
		return cmpRestriction(e, col)
	case *And:
		return Restriction(e.L, col).Intersect(Restriction(e.R, col))
	case *Or:
		return Restriction(e.L, col).Union(Restriction(e.R, col))
	default:
		// Not, TruePred, unknown types: no derivable restriction.
		return interval.Unbounded
	}
}

// cmpRestriction derives the restriction a single comparison places on col.
func cmpRestriction(c *Cmp, col int) interval.Interval {
	// Normalize to "col op const".
	var op Op
	var k float64
	switch {
	case c.Left.Col == col && c.Right.Col < 0:
		op, k = c.Op, c.Right.Const
	case c.Right.Col == col && c.Left.Col < 0:
		// K op col  ≡  col op' K with the operator mirrored.
		k = c.Left.Const
		switch c.Op {
		case Lt:
			op = Gt
		case Le:
			op = Ge
		case Gt:
			op = Lt
		case Ge:
			op = Le
		default:
			op = c.Op // Eq, Ne are symmetric
		}
	default:
		return interval.Unbounded
	}
	switch op {
	case Lt, Le:
		// Closed endpoint is a conservative superset for strict <.
		return interval.Interval{Lo: math.Inf(-1), Hi: k}
	case Gt, Ge:
		return interval.Interval{Lo: k, Hi: math.Inf(1)}
	case Eq:
		return interval.Point(k)
	default: // Ne: no useful interval restriction
		return interval.Unbounded
	}
}
