"""Word-level arithmetic, comparison and bitwise algebra.

All identities hold over exact integer semantics (see DESIGN.md); rules whose
right-hand side drops an operand are automatically totality-guarded by
:func:`~repro.rewrites.soundness.drule`.  Every rule here is declarative;
``mul-pow2-shl`` builds its shift amount from the matched constant,
``(const (log2 ?v))``, under a ``pow2`` guard.
"""

from __future__ import annotations

from repro.egraph.rewrite import Rewrite
from repro.rewrites.soundness import boolean, darm, drule, nonneg, pow2


def arith_rules() -> list[Rewrite]:
    """The base arithmetic rule set."""
    return [
        # --- commutativity / associativity --------------------------------
        drule("add-comm", "(+ ?a ?b)", "(+ ?b ?a)"),
        drule("mul-comm", "(* ?a ?b)", "(* ?b ?a)"),
        drule("add-assoc", "(+ (+ ?a ?b) ?c)", "(+ ?a (+ ?b ?c))"),
        drule("add-assoc-rev", "(+ ?a (+ ?b ?c))", "(+ (+ ?a ?b) ?c)"),
        drule("and-comm", "(& ?a ?b)", "(& ?b ?a)"),
        drule("or-comm", "(| ?a ?b)", "(| ?b ?a)"),
        drule("xor-comm", "(^ ?a ?b)", "(^ ?b ?a)"),
        drule("min-comm", "(min ?a ?b)", "(min ?b ?a)"),
        drule("max-comm", "(max ?a ?b)", "(max ?b ?a)"),
        # --- identities ----------------------------------------------------
        drule("add-zero", "(+ ?a 0)", "?a"),
        drule("sub-zero", "(- ?a 0)", "?a"),
        drule("sub-self", "(- ?a ?a)", "0"),
        drule("mul-one", "(* ?a 1)", "?a"),
        drule("mul-zero", "(* ?a 0)", "0"),
        drule("min-self", "(min ?a ?a)", "?a"),
        drule("max-self", "(max ?a ?a)", "?a"),
        drule("or-zero", "(| ?a 0)", "?a", nonneg("a")),
        drule("xor-zero", "(^ ?a 0)", "?a", nonneg("a")),
        drule("and-zero", "(& ?a 0)", "0", nonneg("a")),
        drule("and-self", "(& ?a ?a)", "?a", nonneg("a")),
        drule("or-self", "(| ?a ?a)", "?a", nonneg("a")),
        drule("xor-self", "(^ ?a ?a)", "0", nonneg("a")),
        # --- add/sub algebra ------------------------------------------------
        drule("sub-add-cancel", "(- (+ ?a ?b) ?b)", "?a"),
        drule("add-sub-cancel", "(+ (- ?a ?b) ?b)", "?a"),
        drule("sub-sub", "(- (- ?a ?b) ?c)", "(- ?a (+ ?b ?c))"),
        drule("sub-sub-rev", "(- ?a (+ ?b ?c))", "(- (- ?a ?b) ?c)"),
        drule("sub-of-sub", "(- ?a (- ?b ?c))", "(+ (- ?a ?b) ?c)"),
        drule("neg-as-sub", "(neg ?a)", "(- 0 ?a)"),
        drule("sub-as-neg", "(- 0 ?a)", "(neg ?a)"),
        drule("neg-neg", "(neg (neg ?a))", "?a"),
        drule("add-neg", "(+ ?a (neg ?b))", "(- ?a ?b)"),
        drule("sub-neg", "(- ?a (neg ?b))", "(+ ?a ?b)"),
        drule("sub-swap", "(neg (- ?a ?b))", "(- ?b ?a)"),
        # --- comparison symmetry --------------------------------------------
        drule("lt-gt", "(< ?a ?b)", "(> ?b ?a)"),
        drule("gt-lt", "(> ?a ?b)", "(< ?b ?a)"),
        drule("le-ge", "(<= ?a ?b)", "(>= ?b ?a)"),
        drule("ge-le", "(>= ?a ?b)", "(<= ?b ?a)"),
        drule("eq-comm", "(== ?a ?b)", "(== ?b ?a)"),
        drule("ne-comm", "(!= ?a ?b)", "(!= ?b ?a)"),
        # --- abs / min / max ------------------------------------------------
        drule("abs-as-mux", "(abs ?a)", "(mux (< ?a 0) (neg ?a) ?a)"),
        drule("mux-as-abs", "(mux (< ?a 0) (neg ?a) ?a)", "(abs ?a)"),
        drule("abs-neg", "(abs (neg ?a))", "(abs ?a)"),
        drule("min-as-mux", "(min ?a ?b)", "(mux (< ?a ?b) ?a ?b)"),
        drule("max-as-mux", "(max ?a ?b)", "(mux (> ?a ?b) ?a ?b)"),
        # --- boolean simplification (guarded to {0,1} operands) -------------
        drule("lnot-lnot", "(lnot (lnot ?a))", "?a", boolean("a")),
        drule("ne-zero-bool", "(!= ?a 0)", "?a", boolean("a")),
        drule("eq-zero-lnot", "(== ?a 0)", "(lnot ?a)"),
        drule("lnot-as-eq", "(lnot ?a)", "(== ?a 0)"),
        # --- strength reduction: a * 2^k -> a << k, the constant either side
        Rewrite("mul-pow2-shl", (
            darm("(* (const ?v) ?a)", "(<< ?a (const (log2 ?v)))", guards=(pow2("?v"),)),
            darm("(* ?a (const ?v))", "(<< ?a (const (log2 ?v)))", guards=(pow2("?v"),)),
        )),
    ]
