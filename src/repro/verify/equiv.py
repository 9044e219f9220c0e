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
from repro.synth.netlist import Netlist
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
        # A BDD verdict's ``trials`` is its node count, so it is named once.
        counts = [] if self.method == "bdd" else [f"{self.trials} trials"]
        if self.bdd_nodes:
            counts.append(f"{self.bdd_nodes} BDD nodes")
        return f"{verdict[self.equivalent]} ({', '.join([self.method, *counts])})"


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


def _fixed_bits(
    netlist: Netlist, ranges: Mapping[str, IntervalSet]
) -> dict[int, int]:
    """Input nets the domain pins to one value: net -> 0/1.

    Every in-range value of an input shares the high-order bits its lowest
    and highest values have in common, so those bits are constants over the
    whole care set.
    """
    fixed: dict[int, int] = {}
    for name, nets in netlist.inputs.items():
        if name not in ranges:
            continue
        domain = IntervalSet.unsigned(len(nets)).intersect(ranges[name])
        if domain.is_empty:
            continue
        lo = domain.min()
        shared = (lo ^ domain.max()).bit_length()  # bits from here up agree
        fixed.update((nets[bit], lo >> bit & 1) for bit in range(shared, len(nets)))
    return fixed


def _first_reach(netlist: Netlist, roots: list[int]) -> list[int]:
    """Input nets in the order a depth-first walk of the fan-in of ``roots``
    first reaches them (each gate's inputs left to right)."""
    driver = {gate.output: gate.inputs for gate in netlist.gates}
    seen: set[int] = set()
    reached: list[int] = []
    stack = list(reversed(roots))
    while stack:
        net = stack.pop()
        if net in seen or net < 2:  # nets 0 and 1 are the constants
            continue
        seen.add(net)
        inputs = driver.get(net)
        if inputs is None:
            reached.append(net)
        else:
            stack.extend(reversed(inputs))
    return reached


def _variable_order(netlist: Netlist, free: set[int]) -> list[int]:
    """The free input nets in BDD variable order, read off the miter.

    A miter that shifts by a variable amount (lowering tags each barrel
    shifter ``shift<n>``) orders bits by fan-in DFS first reach from the
    output (Fujita et al.; Malik et al., ICCAD 1988).  Otherwise words are
    taken in first-reach order and their bits interleaved MSB-first, which
    suits comparators and adders.  Nets the walk misses follow in that
    interleave, unreached words in name order.  The order reads names only
    through a sort, so an order-preserving renaming gives the same BDD.
    """
    reached = _first_reach(netlist, netlist.outputs["out"].bits)
    word_of = {net: name for name, nets in netlist.inputs.items() for net in nets}
    words = dict.fromkeys(word_of[net] for net in reached)
    words.update(dict.fromkeys(sorted(netlist.inputs)))
    interleaved = []
    max_width = max(map(len, netlist.inputs.values()), default=0)
    for bit in range(max_width - 1, -1, -1):
        for name in words:
            nets = netlist.inputs[name]
            if bit < len(nets) and nets[bit] in free:
                interleaved.append(nets[bit])
    if not any(gate.tag.startswith("shift") for gate in netlist.gates):
        return interleaved
    reached = [net for net in reached if net in free]
    first = set(reached)
    return reached + [net for net in interleaved if net not in first]


def _bdd_check(
    a: Expr,
    b: Expr,
    widths: dict[str, int],
    ranges: Mapping[str, IntervalSet],
    node_limit: int,
    limit: float = math.inf,
    clock: Clock = time.monotonic,
) -> EquivalenceResult:
    """Prove by building the BDD of ``domain & (a != b)`` over a miter.

    Input bits the domain fixes (see :func:`_fixed_bits`) enter the gates
    as constants, so the BDD is built over the care set's free bits only;
    a counterexample gets the fixed bits back.  The free bits are ordered
    from the miter's structure (:func:`_variable_order`).
    """
    miter: Expr = ir.ne(a, b)
    domain = _domain_condition(widths, ranges)
    if domain is not None:
        miter = Expr(ir.ops.AND, (), (miter, domain))
    netlist = lower_to_netlist(miter, ranges).netlist
    fixed = _fixed_bits(netlist, ranges)
    free = {net for nets in netlist.inputs.values() for net in nets} - fixed.keys()
    order = _variable_order(netlist, free)

    bdd = BDD(
        node_limit,
        deadline=None if math.isinf(limit) else limit,
        clock=clock,
    )
    values: dict[int, int] = {0: bdd.FALSE, 1: bdd.TRUE}
    for net, bit_value in fixed.items():
        values[net] = bdd.TRUE if bit_value else bdd.FALSE
    for var_index, net in enumerate(order):
        values[net] = bdd.var(var_index)
    for gate in netlist.gates:
        operands = [values[i] for i in gate.inputs]
        values[gate.output] = bdd.apply_gate(gate.kind, *operands)
    diff = bdd.FALSE
    for net in netlist.outputs["out"].bits:
        diff = bdd.apply_or(diff, values[net])

    if diff == bdd.FALSE:
        return EquivalenceResult(True, "bdd", trials=len(bdd), bdd_nodes=len(bdd))
    assignment = bdd.any_sat(diff) or {}
    ones = {net for net, bit_value in fixed.items() if bit_value}
    ones.update(order[var] for var, bit_value in assignment.items() if bit_value)
    env = {
        name: sum(1 << bit for bit, net in enumerate(nets) if net in ones)
        for name, nets in sorted(netlist.inputs.items())
    }
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
