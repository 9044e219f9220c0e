"""Equivalence checking of two IR designs over a constrained input domain."""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.intervals import IntervalSet
from repro.ir import expr as ir
from repro.ir.evaluate import compile_evaluator, input_variables
from repro.ir.expr import Expr
from repro.synth.lower import LoweringError, lower_to_netlist
from repro.verify.bdd import BDD, BddLimitError

Clock = Callable[[], float]

#: Engine safety cap on BDD growth: past this, a proof attempt is costing
#: more than the randomized fallback is worth.  Budget quotas *tighten*
#: this cap (a pool larger than the cap still stops here), they never
#: raise it.
DEFAULT_BDD_NODE_LIMIT = 400_000


@dataclass
class EquivalenceResult:
    """Outcome of a check.

    ``equivalent`` is ``True`` (proved), ``False`` (counterexample found) or
    ``None`` (a non-proof: randomized check passed, or the deadline cut the
    check short — ``method`` tells which).
    """

    equivalent: bool | None
    method: str  # 'exhaustive' | 'bdd' | 'random' | 'timeout'
    counterexample: dict[str, int] | None = None
    trials: int = 0
    #: BDD nodes built while attempting a proof (0 when no BDD ran); the
    #: spend a governed ``Verify`` stage charges against ``Budget.bdd_nodes``.
    bdd_nodes: int = 0

    @property
    def ok(self) -> bool:
        """No difference observed (proved or survived randomized testing)."""
        return self.equivalent is not False

    def __repr__(self) -> str:
        verdict = {True: "EQUIVALENT", False: "DIFFERENT", None: "NO-DIFF-FOUND"}
        return f"{verdict[self.equivalent]} ({self.method}, {self.trials} trials)"


def _merged_widths(a: Expr, b: Expr) -> dict[str, int]:
    widths = input_variables(a)
    for name, width in input_variables(b).items():
        if widths.get(name, width) != width:
            raise ValueError(f"variable {name} has conflicting widths")
        widths[name] = width
    return widths


def _domain_values(
    name: str, width: int, ranges: Mapping[str, IntervalSet]
) -> IntervalSet:
    domain = IntervalSet.unsigned(width)
    if name in ranges:
        domain = domain.intersect(ranges[name])
    return domain


def check_equivalent(
    a: Expr,
    b: Expr,
    input_ranges: Mapping[str, IntervalSet] | None = None,
    exhaustive_budget: int = 1 << 16,
    bdd_node_limit: int = DEFAULT_BDD_NODE_LIMIT,
    random_trials: int = 5_000,
    seed: int = 0,
    deadline: float | None = None,
    clock: Clock | None = None,
) -> EquivalenceResult:
    """Check ``a == b`` on the (possibly constrained) input domain.

    Strategy: exhaustive simulation when the domain is small enough, then a
    BDD proof, then randomized simulation.  Mirrors how one would back up
    the paper's DPV runs without a commercial tool.

    ``deadline`` (an absolute instant on ``clock``, injectable for tests)
    makes the check interruptible: an exhaustive or randomized sweep stops
    between trials, a blowing-up BDD stops within a few hundred nodes and
    degrades to the randomized path.  A check cut short before it could
    complete reports ``method="timeout"`` with ``equivalent=None`` — never
    an exception, never a silent overshoot of a governed run's budget.
    """
    clock = clock if clock is not None else time.monotonic
    limit = deadline if deadline is not None else math.inf
    ranges = dict(input_ranges or {})
    widths = _merged_widths(a, b)
    domains = {n: _domain_values(n, w, ranges) for n, w in widths.items()}

    total = 1
    for domain in domains.values():
        size = domain.size()
        total = None if size is None else total * size
        if total is None or total > exhaustive_budget:
            total = None
            break

    if total is not None:
        return _exhaustive(a, b, domains, limit, clock)

    if bdd_node_limit <= 0:
        # A dry BDD quota: skip the proof attempt entirely (lowering the
        # miter netlist is itself expensive) and go straight to trials.
        return _random_check(a, b, domains, random_trials, seed, limit, clock)

    try:
        return _bdd_check(a, b, widths, ranges, bdd_node_limit, limit, clock)
    except LoweringError:
        # A form the netlist cannot realize: fall back to randomized
        # simulation (reported as such, not as a proof).
        spent = 0
    except BddLimitError as blown:
        # BDD blow-up (node quota or deadline): degrade to randomized
        # simulation, carrying the abandoned proof's node spend so a
        # governed Verify stage still charges it into the ledger.
        spent = blown.nodes
    # Trials run outside the handler: the exception's traceback would keep
    # the abandoned BDD (up to the whole node cap) alive through them.
    result = _random_check(a, b, domains, random_trials, seed, limit, clock)
    result.bdd_nodes = spent
    return result


def prove_equivalent(
    a: Expr, b: Expr, input_ranges: Mapping[str, IntervalSet] | None = None, **kw
) -> None:
    """Raise AssertionError unless equivalence is established."""
    result = check_equivalent(a, b, input_ranges, **kw)
    if result.equivalent is False:
        raise AssertionError(
            f"designs differ at {result.counterexample}: {result}"
        )


# ---------------------------------------------------------------- strategies
def _exhaustive(
    a: Expr,
    b: Expr,
    domains: dict[str, IntervalSet],
    limit: float,
    clock: Clock,
) -> EquivalenceResult:
    names = sorted(domains)
    values = [list(domains[n].iter_values()) for n in names]
    simulate = compile_evaluator(a, b)
    bounded = not math.isinf(limit)
    trials = 0
    # Lexicographic over the sorted names, the last one varying fastest.
    for point in itertools.product(*values):
        if bounded and clock() > limit:
            # An incomplete sweep that saw no difference is not a proof.
            return EquivalenceResult(None, "timeout", trials=trials)
        trials += 1
        env = dict(zip(names, point, strict=True))
        va, vb = simulate(env)
        if va != vb:
            return EquivalenceResult(
                False, "exhaustive", counterexample=env, trials=trials
            )
    return EquivalenceResult(True, "exhaustive", trials=trials)


def _domain_condition(widths: dict[str, int], ranges: Mapping[str, IntervalSet]) -> Expr | None:
    """IR condition 'every input lies in its declared domain restriction'."""
    conjuncts: list[Expr] = []
    for name, width in sorted(widths.items()):
        if name not in ranges:
            continue
        domain = IntervalSet.unsigned(width).intersect(ranges[name])
        x = ir.var(name, width)
        parts = []
        for piece in domain.parts:
            lo = ir.ge(x, piece.lo) if piece.lo is not None else None
            hi = ir.le(x, piece.hi) if piece.hi is not None else None
            if lo is not None and hi is not None:
                parts.append(Expr(ir.ops.AND, (), (lo, hi)))
            else:
                parts.append(lo if lo is not None else hi)
        piece_or = parts[0]
        for p in parts[1:]:
            piece_or = Expr(ir.ops.OR, (), (piece_or, p))
        conjuncts.append(piece_or)
    if not conjuncts:
        return None
    out = conjuncts[0]
    for c in conjuncts[1:]:
        out = Expr(ir.ops.AND, (), (out, c))
    return out


def _bdd_check(
    a: Expr,
    b: Expr,
    widths: dict[str, int],
    ranges: Mapping[str, IntervalSet],
    node_limit: int,
    limit: float = math.inf,
    clock: Clock = time.monotonic,
) -> EquivalenceResult:
    """Prove by building the BDD of ``domain & (a != b)`` over a miter."""
    miter: Expr = ir.ne(a, b)
    domain = _domain_condition(widths, ranges)
    if domain is not None:
        miter = Expr(ir.ops.AND, (), (miter, domain))
    lowered = lower_to_netlist(miter, ranges)
    netlist = lowered.netlist

    # Variable order: interleave input bits MSB-first (good for comparators
    # and subtractors alike).
    order: dict[int, int] = {}
    names = sorted(netlist.inputs)
    position = 0
    max_width = max((len(netlist.inputs[n]) for n in names), default=0)
    for bit in range(max_width - 1, -1, -1):
        for name in names:
            nets = netlist.inputs[name]
            if bit < len(nets):
                order[nets[bit]] = position
                position += 1

    bdd = BDD(
        node_limit,
        deadline=None if math.isinf(limit) else limit,
        clock=clock,
    )
    values: dict[int, int] = {0: bdd.FALSE, 1: bdd.TRUE}
    for net, var_index in order.items():
        values[net] = bdd.var(var_index)
    for gate in netlist.gates:
        operands = [values[i] for i in gate.inputs]
        values[gate.output] = bdd.apply_gate(gate.kind, *operands)
    root_bits = netlist.outputs["out"].bits
    diff = bdd.FALSE
    for net in root_bits:
        diff = bdd.apply_or(diff, values[net])

    if diff == bdd.FALSE:
        return EquivalenceResult(True, "bdd", trials=len(bdd), bdd_nodes=len(bdd))
    assignment = bdd.any_sat(diff)
    env = {}
    inverse = {pos: net for net, pos in order.items()}
    net_bit = {}
    for name in names:
        for bit, net in enumerate(netlist.inputs[name]):
            net_bit[net] = (name, bit)
        env[name] = 0
    for var_index, bit_value in (assignment or {}).items():
        net = inverse.get(var_index)
        if net is not None and bit_value:
            name, bit = net_bit[net]
            env[name] |= 1 << bit
    return EquivalenceResult(
        False, "bdd", counterexample=env, trials=len(bdd), bdd_nodes=len(bdd)
    )


def _random_check(
    a: Expr,
    b: Expr,
    domains: dict[str, IntervalSet],
    trials: int,
    seed: int,
    limit: float = math.inf,
    clock: Clock = time.monotonic,
) -> EquivalenceResult:
    rng = random.Random(seed)
    samplers = {}
    for name, domain in domains.items():
        parts = domain.parts
        samplers[name] = parts
    simulate = compile_evaluator(a, b)
    bounded = not math.isinf(limit)

    for trial in range(trials):
        if bounded and clock() > limit:
            # Cut short: the trials run so far saw no difference, but the
            # planned confidence was not reached — report the truncation.
            return EquivalenceResult(None, "timeout", trials=trial)
        env = {}
        for name, parts in samplers.items():
            piece = parts[rng.randrange(len(parts))]
            env[name] = rng.randint(piece.lo, piece.hi)
        va, vb = simulate(env)
        if va != vb:
            return EquivalenceResult(False, "random", counterexample=env, trials=trial + 1)
    return EquivalenceResult(None, "random", trials=trials)
