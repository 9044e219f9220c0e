"""Curated rule sets for the optimizer's phases (see DESIGN.md).

The paper runs "a set of parameterized and generalized constraint-aware
rewrites at the word level" for a number of iterations.  We group the rules
so the driver (:mod:`repro.opt`) can schedule them the way Section V
describes: split & assume first, then constraint exploitation, then
narrowing.
"""

from __future__ import annotations

from repro.egraph.rewrite import Rewrite
from repro.rewrites.arith import arith_rules
from repro.rewrites.assume import assume_rules
from repro.rewrites.casesplit import casesplit_rules
from repro.rewrites.condition import condition_rules
from repro.rewrites.mux import mux_cond_const_rule, mux_pull_rule, mux_rules
from repro.rewrites.range_rules import range_rules
from repro.rewrites.shift import shift_rules

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


def structural_ruleset() -> list[Rewrite]:
    """Domain-free word-level identities: arithmetic, shifts, muxes."""
    return [*arith_rules(), *shift_rules(), *mux_rules(), mux_pull_rule(), mux_cond_const_rule()]


#: Named ruleset registry for phased schedules (CLI / Session job specs
#: reference rulesets by these names): Table I's ASSUME rules, Section
#: IV-C's condition rewriting, range-driven narrowing and Section V's case
#: split (at the default threshold; call :func:`casesplit_rules` to
#: parameterize it).
RULESETS: dict[str, object] = {
    "structural": structural_ruleset,
    "assume": assume_rules,
    "condition": condition_rules,
    "narrowing": range_rules,
    "casesplit": casesplit_rules,
}


def ruleset(name: str) -> list[Rewrite]:
    """Look up one named ruleset (see :data:`RULESETS`)."""
    if name not in RULESETS:
        raise KeyError(f"unknown ruleset {name!r}; have {sorted(RULESETS)}")
    return RULESETS[name]()


#: Composition cache: (split_threshold, enable_assume, enable_condition) →
#: rule list.  Safe because :class:`Rewrite` objects are stateless (the
#: runner tracks once-rule firing per run, not on the rule), so one shared
#: rule object can serve any number of concurrent jobs — which is exactly
#: what the service daemon does, rebuilding nothing per submission.
_COMPOSE_CACHE: dict[tuple[int | None, bool, bool], tuple[Rewrite, ...]] = {}


def compose_rules(
    split_threshold: int | None = 1,
    enable_assume: bool = True,
    enable_condition: bool = True,
) -> list[Rewrite]:
    """Explicit composition of the optimizer's default schedule.

    This is the single-phase rule selection :class:`~repro.opt.optimizer.
    OptimizerConfig` runs (the ablation switches drop whole rulesets rather
    than filtering rules by name prefix); phased schedules compose the same
    rulesets across several ``Saturate`` stages instead.

    Compositions are memoized per parameter triple; callers get a fresh
    list each time (mutate freely) over shared, stateless rule objects.
    """
    key = (split_threshold, enable_assume, enable_condition)
    cached = _COMPOSE_CACHE.get(key)
    if cached is None:
        rules = structural_ruleset()
        if enable_assume:
            rules += assume_rules()
        if enable_condition:
            rules += condition_rules()
        rules += range_rules()
        if split_threshold is not None:
            rules += casesplit_rules(split_threshold)
        cached = _COMPOSE_CACHE[key] = tuple(rules)
    return list(cached)


def all_rules(split_threshold: int | None = 1) -> list[Rewrite]:
    """Everything, for single-phase runs on small designs.

    ``split_threshold=None`` omits the case-split rule (ablation hook).
    """
    return compose_rules(split_threshold)
