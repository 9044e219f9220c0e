"""The rewrite library of the paper's RTL optimizer.

Rule groups (see ``rulesets``):

* ``arith``      — word-level arithmetic and comparison algebra,
* ``shift``      — shift / truncation algebra used for bitwidth reduction,
* ``mux``        — mux algebra incl. eqs. (6)/(7) and analysis-based pruning,
* ``assume``     — Table I: ASSUME creation, propagation and simplification,
* ``condition``  — Table II: rewriting conditions into ``Constr`` form,
* ``range_rules``— rules justified by the interval analysis
  (identity-by-range, LZC narrowing as in Fig. 1, shift elision),
* ``casesplit``  — the case-split introduction of Section V.

Every declarative rule is built with :func:`~repro.rewrites.soundness.drule`,
which auto-inserts totality guards for variables the right-hand side drops —
keeping rules sound over the paper's ``Z' = Z ∪ {*}`` semantics.
"""

from repro.rewrites.rulesets import (
    RULESETS,
    all_rules,
    arith_rules,
    assume_rules,
    casesplit_rules,
    compose_rules,
    condition_rules,
    mux_rules,
    range_rules,
    ruleset,
    shift_rules,
    structural_ruleset,
)

__all__ = [
    "arith_rules",
    "shift_rules",
    "mux_rules",
    "assume_rules",
    "condition_rules",
    "range_rules",
    "casesplit_rules",
    "all_rules",
    "structural_ruleset",
    "RULESETS",
    "ruleset",
    "compose_rules",
]
