// Package predicate implements selection predicates over bounded data and
// the T+/T?/T− classification at the heart of TRAPP/AG queries with
// predicates (paper section 6 and Appendix D).
//
// A predicate is a boolean expression tree over binary comparisons between
// columns and constants. Evaluated over a tuple whose attributes are
// guaranteed bounds, a predicate yields a three-valued result:
//
//   - True:    Certain(P) holds — the tuple satisfies P for every choice of
//     master values inside its bounds (tuple ∈ T+).
//   - False:   ¬Possible(P) — no choice satisfies P (tuple ∈ T−).
//   - Unknown: some choices satisfy P and others do not (tuple ∈ T?).
//
// The translation follows the paper's Figure 8: comparisons translate to
// endpoint comparisons; ¬, ∧ and ∨ combine by Kleene three-valued logic.
// As the paper notes, Certain(E1 ∨ E2) ⇐ Certain(E1) ∨ Certain(E2) and
// Possible(E1 ∧ E2) ⇒ Possible(E1) ∧ Possible(E2) are implications rather
// than equivalences, so correlated subexpressions may land a tuple in T?
// that belongs in T+ or T−; this affects only optimality, never
// correctness.
package predicate

import (
	"strconv"
	"strings"

	"trapp/internal/interval"
	"trapp/internal/relation"
)

// Expr is a selection predicate over one relation's tuples.
type Expr interface {
	// Eval evaluates the predicate over a tuple's bounds, returning the
	// three-valued classification result.
	Eval(tu *relation.Tuple) interval.Tri
	// EvalExact evaluates the predicate over exact attribute values (one
	// per schema column). It defines the ground truth that Eval's
	// Possible/Certain results are sound with respect to.
	EvalExact(vals []float64) bool
	// Columns appends the referenced column indexes to dst.
	Columns(dst []int) []int
	// String renders the predicate in SQL-ish syntax.
	String() string
}

// Op is a comparison operator.
type Op int8

const (
	// Lt is <.
	Lt Op = iota
	// Le is <=.
	Le
	// Gt is >.
	Gt
	// Ge is >=.
	Ge
	// Eq is =.
	Eq
	// Ne is <>.
	Ne
)

// String returns the SQL spelling of the operator.
func (o Op) String() string {
	switch o {
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	case Eq:
		return "="
	default:
		return "<>"
	}
}

// tri dispatches an interval comparison for the operator.
func (o Op) tri(x, y interval.Interval) interval.Tri {
	switch o {
	case Lt:
		return interval.CmpLess(x, y)
	case Le:
		return interval.CmpLessEq(x, y)
	case Gt:
		return interval.CmpGreater(x, y)
	case Ge:
		return interval.CmpGreaterEq(x, y)
	case Eq:
		return interval.CmpEq(x, y)
	default:
		return interval.CmpNotEq(x, y)
	}
}

// exact evaluates the operator on two exact values.
func (o Op) exact(a, b float64) bool {
	switch o {
	case Lt:
		return a < b
	case Le:
		return a <= b
	case Gt:
		return a > b
	case Ge:
		return a >= b
	case Eq:
		return a == b
	default:
		return a != b
	}
}

// Operand is one side of a comparison: a column reference or a constant.
// To handle expressions uniformly (Appendix D), constants behave as point
// intervals [K, K].
type Operand struct {
	// Col is the referenced column index, or -1 for a constant.
	Col int
	// Name is the column name for display; ignored for constants.
	Name string
	// Const is the constant value when Col < 0.
	Const float64
}

// Column returns an operand referencing column index col named name.
func Column(col int, name string) Operand { return Operand{Col: col, Name: name} }

// Const returns a constant operand.
func Const(v float64) Operand { return Operand{Col: -1, Const: v} }

// bound returns the operand's interval for a tuple.
func (o Operand) bound(tu *relation.Tuple) interval.Interval {
	if o.Col < 0 {
		return interval.Point(o.Const)
	}
	return tu.Bounds[o.Col]
}

// exact returns the operand's exact value given exact column values.
func (o Operand) exact(vals []float64) float64 {
	if o.Col < 0 {
		return o.Const
	}
	return vals[o.Col]
}

// String renders the operand.
func (o Operand) String() string { return string(o.appendTo(nil)) }

// appendTo appends the operand's rendering: a constant in %g's shortest
// form, a column by name or, when anonymous, as colN.
func (o Operand) appendTo(b []byte) []byte {
	if o.Col < 0 {
		return strconv.AppendFloat(b, o.Const, 'g', -1, 64)
	}
	if o.Name != "" {
		return append(b, o.Name...)
	}
	return strconv.AppendInt(append(b, "col"...), int64(o.Col), 10)
}

// Cmp is a binary comparison between two operands.
type Cmp struct {
	Left  Operand
	Op    Op
	Right Operand
}

// NewCmp builds a comparison expression.
func NewCmp(left Operand, op Op, right Operand) *Cmp {
	return &Cmp{Left: left, Op: op, Right: right}
}

// Eval applies the Figure 8 translation for the comparison.
func (c *Cmp) Eval(tu *relation.Tuple) interval.Tri {
	return c.Op.tri(c.Left.bound(tu), c.Right.bound(tu))
}

// EvalExact evaluates the comparison over exact values.
func (c *Cmp) EvalExact(vals []float64) bool {
	return c.Op.exact(c.Left.exact(vals), c.Right.exact(vals))
}

// Columns appends referenced columns.
func (c *Cmp) Columns(dst []int) []int {
	if c.Left.Col >= 0 {
		dst = append(dst, c.Left.Col)
	}
	if c.Right.Col >= 0 {
		dst = append(dst, c.Right.Col)
	}
	return dst
}

// String renders "left op right".
func (c *Cmp) String() string { return render(c) }

// And is a conjunction.
type And struct{ L, R Expr }

// NewAnd builds L AND R.
func NewAnd(l, r Expr) *And { return &And{l, r} }

// Eval combines by Kleene conjunction, matching the paper's translation:
// Certain(E1 ∧ E2) ⇔ Certain(E1) ∧ Certain(E2) and
// Possible(E1 ∧ E2) ⇒ Possible(E1) ∧ Possible(E2).
func (a *And) Eval(tu *relation.Tuple) interval.Tri {
	return a.L.Eval(tu).And(a.R.Eval(tu))
}

// EvalExact evaluates the conjunction over exact values.
func (a *And) EvalExact(vals []float64) bool {
	return a.L.EvalExact(vals) && a.R.EvalExact(vals)
}

// Columns appends referenced columns.
func (a *And) Columns(dst []int) []int { return a.R.Columns(a.L.Columns(dst)) }

// String renders "(L AND R)".
func (a *And) String() string { return render(a) }

// Or is a disjunction.
type Or struct{ L, R Expr }

// NewOr builds L OR R.
func NewOr(l, r Expr) *Or { return &Or{l, r} }

// Eval combines by Kleene disjunction, matching the paper's translation:
// Possible(E1 ∨ E2) ⇔ Possible(E1) ∨ Possible(E2) and
// Certain(E1 ∨ E2) ⇐ Certain(E1) ∨ Certain(E2).
func (o *Or) Eval(tu *relation.Tuple) interval.Tri {
	return o.L.Eval(tu).Or(o.R.Eval(tu))
}

// EvalExact evaluates the disjunction over exact values.
func (o *Or) EvalExact(vals []float64) bool {
	return o.L.EvalExact(vals) || o.R.EvalExact(vals)
}

// Columns appends referenced columns.
func (o *Or) Columns(dst []int) []int { return o.R.Columns(o.L.Columns(dst)) }

// String renders "(L OR R)".
func (o *Or) String() string { return render(o) }

// Not is a negation.
type Not struct{ E Expr }

// NewNot builds NOT E.
func NewNot(e Expr) *Not { return &Not{e} }

// Eval applies the Figure 8 rule Possible(¬E) ⇔ ¬Certain(E) and
// Certain(¬E) ⇔ ¬Possible(E), which is exactly Kleene negation.
func (n *Not) Eval(tu *relation.Tuple) interval.Tri {
	return n.E.Eval(tu).Not()
}

// EvalExact evaluates the negation over exact values.
func (n *Not) EvalExact(vals []float64) bool { return !n.E.EvalExact(vals) }

// Columns appends referenced columns.
func (n *Not) Columns(dst []int) []int { return n.E.Columns(dst) }

// String renders "NOT (E)".
func (n *Not) String() string { return render(n) }

// TruePred matches every tuple; it represents an absent WHERE clause.
type TruePred struct{}

// Eval always returns True.
func (TruePred) Eval(*relation.Tuple) interval.Tri { return interval.True }

// EvalExact always returns true.
func (TruePred) EvalExact([]float64) bool { return true }

// Columns appends nothing.
func (TruePred) Columns(dst []int) []int { return dst }

// String renders "TRUE".
func (TruePred) String() string { return "TRUE" }

// render walks the expression tree once into one builder, so a
// predicate renders in time and space linear in its size however deeply
// it nests (the plan cache and standing views key on the rendering).
func render(e Expr) string {
	var r renderer
	r.expr(e)
	return r.String()
}

// renderer is render's builder, with scratch space for one operand.
type renderer struct {
	strings.Builder
	num [32]byte
}

func (r *renderer) expr(e Expr) {
	switch e := e.(type) {
	case *Cmp:
		r.Write(e.Left.appendTo(r.num[:0]))
		r.WriteByte(' ')
		r.WriteString(e.Op.String())
		r.WriteByte(' ')
		r.Write(e.Right.appendTo(r.num[:0]))
	case *And:
		r.binary(e.L, " AND ", e.R)
	case *Or:
		r.binary(e.L, " OR ", e.R)
	case *Not:
		r.WriteString("NOT (")
		r.expr(e.E)
		r.WriteByte(')')
	default:
		r.WriteString(e.String())
	}
}

func (r *renderer) binary(l Expr, op string, rhs Expr) {
	r.WriteByte('(')
	r.expr(l)
	r.WriteString(op)
	r.expr(rhs)
	r.WriteByte(')')
}

// IsTrivial reports whether the predicate is the constant TRUE, meaning
// the no-predicate algorithms of section 5 apply.
func IsTrivial(e Expr) bool {
	_, ok := e.(TruePred)
	return ok || e == nil
}
