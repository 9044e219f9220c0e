"""Concrete semantics over ``Z' = Z ∪ {*}`` (eq. (1) of the paper).

``*`` (:data:`BOT`) models "failing an assertion": an ``ASSUME`` whose
constraint does not hold.  Every operator is strict in ``*`` **except** the
ternary ``MUX``, which returns ``*`` only when the condition is ``*`` or the
*reachable* branch is ``*`` — exactly the special treatment Section III-B
prescribes.

Bitwise operators and slices are defined on non-negative operands only;
applying them to a negative value yields ``*`` (such applications never occur
in well-formed designs, and the abstract domain proves it).

The semantics is implemented twice, side by side: :func:`evaluate`
interprets a tree node by node through :func:`_apply` (the reference), and
:func:`compile_evaluator` lowers a DAG into straight-line Python through
:func:`_strict_source` (the simulation hot path of ``repro.verify``).
"""

from __future__ import annotations

from typing import Callable, Iterator, Mapping

from repro.ir import ops
from repro.ir.expr import Expr


class _Bot:
    """Singleton for the ``*`` element of ``Z'``."""

    _instance: "_Bot | None" = None

    def __new__(cls) -> "_Bot":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "*"


BOT = _Bot()

Value = "int | _Bot"

#: A compiled simulator: ``sim(env)`` returns one value per root, in order.
Simulator = Callable[[Mapping[str, int]], tuple]


def input_variables(expr: Expr) -> dict[str, int]:
    """Map of variable name -> declared width over the whole tree."""
    out: dict[str, int] = {}
    for node in expr.walk():
        if node.op is ops.VAR:
            name, width = node.attrs
            if out.get(name, width) != width:
                raise ValueError(f"variable {name} used at two widths")
            out[name] = width
    return out


def evaluate(expr: Expr, env: Mapping[str, int]) -> "int | _Bot":
    """Evaluate ``expr`` under ``env``; may return :data:`BOT`.

    The reference interpreter, kept obviously faithful to :func:`_apply`;
    hot loops use :func:`compile_evaluator` instead.
    """
    memo: dict[Expr, "int | _Bot"] = {}
    for node in _evaluation_order((expr,)):
        memo[node] = _apply(node, [memo[c] for c in node.children], env)
    return memo[expr]


def _evaluation_order(roots) -> list[Expr]:
    """Distinct subterms of ``roots`` in the order :func:`evaluate` computes
    them, root after root (children before parents, last child first).

    Uses an explicit stack so deep designs do not hit the recursion limit.
    The order is part of the contract: it decides which out-of-range input
    raises first.
    """
    done: dict[Expr, None] = {}  # insertion-ordered set
    for root in roots:
        stack: list[tuple[Expr, bool]] = [(root, False)]
        while stack:
            node, ready = stack.pop()
            if node in done:
                continue
            if not ready:
                stack.append((node, True))
                for child in node.children:
                    if child not in done:
                        stack.append((child, False))
                continue
            done[node] = None
    return list(done)


def evaluate_total(expr: Expr, env: Mapping[str, int]) -> int:
    """Evaluate and require a non-``*`` result."""
    result = evaluate(expr, env)
    if result is BOT:
        raise ValueError(f"expression evaluated to * under {dict(env)!r}")
    return result


def _out_of_range(name: str, value: int, width: int) -> ValueError:
    return ValueError(f"input {name}={value} outside [0, 2^{width})")


def _apply(node: Expr, kids: list, env: Mapping[str, int]):
    """Apply one operator to already-evaluated children."""
    op = node.op

    if op is ops.VAR:
        name, width = node.attrs
        value = env[name]
        if not 0 <= value < (1 << width):
            raise _out_of_range(name, value, width)
        return value
    if op is ops.CONST:
        return node.attrs[0]

    if op is ops.MUX:
        cond, if_true, if_false = kids
        if cond is BOT:
            return BOT
        return if_true if cond != 0 else if_false

    if op is ops.ASSUME:
        value = kids[0]
        for c in kids[1:]:
            if c is BOT or c == 0:
                return BOT
        return value

    # Every remaining operator is strict in *.
    if any(k is BOT for k in kids):
        return BOT

    if op is ops.ADD:
        return kids[0] + kids[1]
    if op is ops.SUB:
        return kids[0] - kids[1]
    if op is ops.MUL:
        return kids[0] * kids[1]
    if op is ops.NEG:
        return -kids[0]
    if op is ops.SHL:
        if kids[1] < 0:
            return BOT
        return kids[0] << kids[1]
    if op is ops.SHR:
        if kids[1] < 0:
            return BOT
        return kids[0] >> kids[1]
    if op is ops.AND:
        if kids[0] < 0 or kids[1] < 0:
            return BOT
        return kids[0] & kids[1]
    if op is ops.OR:
        if kids[0] < 0 or kids[1] < 0:
            return BOT
        return kids[0] | kids[1]
    if op is ops.XOR:
        if kids[0] < 0 or kids[1] < 0:
            return BOT
        return kids[0] ^ kids[1]
    if op is ops.NOT:
        (width,) = node.attrs
        if not 0 <= kids[0] < (1 << width):
            return BOT
        return ((1 << width) - 1) - kids[0]
    if op is ops.LNOT:
        return 1 if kids[0] == 0 else 0
    if op is ops.LT:
        return int(kids[0] < kids[1])
    if op is ops.LE:
        return int(kids[0] <= kids[1])
    if op is ops.GT:
        return int(kids[0] > kids[1])
    if op is ops.GE:
        return int(kids[0] >= kids[1])
    if op is ops.EQ:
        return int(kids[0] == kids[1])
    if op is ops.NE:
        return int(kids[0] != kids[1])
    if op is ops.LZC:
        (width,) = node.attrs
        if not 0 <= kids[0] < (1 << width):
            return BOT
        return width - kids[0].bit_length()
    if op is ops.TRUNC:
        (width,) = node.attrs
        return kids[0] % (1 << width)
    if op is ops.SLICE:
        hi, lo = node.attrs
        if kids[0] < 0:
            return BOT
        return (kids[0] >> lo) & ((1 << (hi - lo + 1)) - 1)
    if op is ops.CONCAT:
        (rhs_width,) = node.attrs
        msbs, lsbs = kids
        if msbs < 0 or not 0 <= lsbs < (1 << rhs_width):
            return BOT
        return (msbs << rhs_width) | lsbs
    if op is ops.ABS:
        return abs(kids[0])
    if op is ops.MIN:
        return min(kids[0], kids[1])
    if op is ops.MAX:
        return max(kids[0], kids[1])

    raise NotImplementedError(f"no semantics for {op}")


# ------------------------------------------------------- compiled simulation
def compile_evaluator(*roots: Expr) -> Simulator:
    """Lower the shared DAG of ``roots`` into one straight-line function.

    ``compile_evaluator(a, b)(env) == (evaluate(a, env), evaluate(b, env))``
    for every ``env``, ``*`` results and the out-of-range ``ValueError``
    included: subterms are computed in :func:`evaluate`'s order, one line
    each, with widths and masks folded to literals.  ``is BOT`` guards are
    emitted only for children that may be ``*`` (an ``ASSUME``, a domain
    check that can fail, or anything strict above either), and the
    negative-operand checks only where the operand is not known to be
    non-negative, so ``*``-free designs compile to plain arithmetic.

    Generated code for ``assume(x, gt(x, 2)) + 1`` with a 4-bit ``x``::

        def _sim(env):
            t0 = env['x']
            if not 0 <= t0 < 16: raise _out_of_range('x', t0, 4)
            t1 = 1 if t0 > 2 else 0
            t2 = t0 if t1 else BOT
            t3 = BOT if t2 is BOT else t2 + 1
            return (t3, )

    Only ``repr`` of names and of computed integers reaches the source.
    """
    text: dict[Expr, str] = {}  # node -> its local, or a literal
    may_bot: set[Expr] = set()  # nodes that may evaluate to *
    nonneg: set[Expr] = set()  # nodes that are * or >= 0
    lines: list[str] = []
    serial = 0
    for node in _evaluation_order(roots):
        op, kids = node.op, node.children
        if op is ops.CONST:
            value = node.attrs[0]
            text[node] = repr(value) if value >= 0 else f"({value!r})"
            if value >= 0:
                nonneg.add(node)
            continue
        local = text[node] = f"t{serial}"
        serial += 1
        operands = [text[k] for k in kids]
        if op is ops.VAR:
            name, width = node.attrs
            lines.append(f"{local} = env[{name!r}]")
            lines.append(
                f"if not 0 <= {local} < {1 << width}: "
                f"raise _out_of_range({name!r}, {local}, {width!r})"
            )
            nonneg.add(node)
            continue
        if op is ops.MUX:
            cond, if_true, if_false = operands
            source = f"{if_true} if {cond} else {if_false}"
            if kids[0] in may_bot:
                source = f"BOT if {cond} is BOT else ({source})"
            if any(k in may_bot for k in kids):
                may_bot.add(node)
            if kids[1] in nonneg and kids[2] in nonneg:
                nonneg.add(node)
        elif op is ops.ASSUME:
            holds = " and ".join(
                f"{c} is not BOT and {c}" if k in may_bot else c
                for k, c in zip(kids[1:], operands[1:], strict=True)
            )
            source = f"{operands[0]} if {holds} else BOT"
            may_bot.add(node)
            if kids[0] in nonneg:
                nonneg.add(node)
        else:
            source, checks, positive = _strict_source(
                node, operands, [k in nonneg for k in kids]
            )
            guards = [
                f"{c} is BOT"
                for k, c in zip(kids, operands, strict=True)
                if k in may_bot
            ] + checks
            if guards:
                source = f"BOT if {' or '.join(guards)} else {source}"
                may_bot.add(node)
            if positive:
                nonneg.add(node)
        lines.append(f"{local} = {source}")

    results = "".join(f"{text[root]}, " for root in roots)
    src = "\n".join(
        ["def _sim(env):", *(f"    {line}" for line in lines), f"    return ({results})"]
    )
    namespace = {"BOT": BOT, "_out_of_range": _out_of_range}
    exec(src, namespace)  # noqa: S102 - internal codegen, no user input
    sim = namespace["_sim"]
    sim.__source__ = src  # debugging aid (inspect the emitted lines)
    return sim


def _strict_source(node: Expr, kids: list[str], nonneg: list[bool]):
    """Source of one strict operator over its operands' text, mirroring
    :func:`_apply`: ``(expression, domain checks that make it *, whether a
    defined result is non-negative)``.  ``nonneg[i]`` says operand ``i`` is
    known to be ``*`` or ``>= 0``, which drops its negative-operand check."""
    op = node.op
    if op is ops.ADD:
        return f"{kids[0]} + {kids[1]}", [], all(nonneg)
    if op is ops.SUB:
        return f"{kids[0]} - {kids[1]}", [], False
    if op is ops.MUL:
        return f"{kids[0]} * {kids[1]}", [], all(nonneg)
    if op is ops.NEG:
        return f"-{kids[0]}", [], False
    if op is ops.SHL or op is ops.SHR:
        checks = [] if nonneg[1] else [f"{kids[1]} < 0"]
        return f"{kids[0]} {op.symbol} {kids[1]}", checks, nonneg[0]
    if op is ops.AND or op is ops.OR or op is ops.XOR:
        checks = [f"{k} < 0" for k, pos in zip(kids, nonneg, strict=True) if not pos]
        return f"{kids[0]} {op.symbol} {kids[1]}", checks, True
    if op is ops.NOT:
        (width,) = node.attrs
        check = _width_check(kids[0], width, nonneg[0])
        return f"{(1 << width) - 1} - {kids[0]}", [check], True
    if op is ops.LNOT:
        return f"0 if {kids[0]} else 1", [], True
    if op in ops.COMPARISONS:
        return f"1 if {kids[0]} {op.symbol} {kids[1]} else 0", [], True
    if op is ops.LZC:
        (width,) = node.attrs
        check = _width_check(kids[0], width, nonneg[0])
        return f"{width!r} - ({kids[0]}).bit_length()", [check], True
    if op is ops.TRUNC:
        # x % 2^w == x & (2^w - 1) for every integer, negative ones included.
        (width,) = node.attrs
        return f"{kids[0]} & {(1 << width) - 1}", [], True
    if op is ops.SLICE:
        hi, lo = node.attrs
        checks = [] if nonneg[0] else [f"{kids[0]} < 0"]
        shifted = f"({kids[0]} >> {lo!r})" if lo else kids[0]
        return f"{shifted} & {(1 << (hi - lo + 1)) - 1}", checks, True
    if op is ops.CONCAT:
        (rhs_width,) = node.attrs
        checks = [] if nonneg[0] else [f"{kids[0]} < 0"]
        checks.append(_width_check(kids[1], rhs_width, nonneg[1]))
        return f"({kids[0]} << {rhs_width!r}) | {kids[1]}", checks, True
    if op is ops.ABS:
        return f"abs({kids[0]})", [], True
    if op is ops.MIN:
        return f"{kids[0]} if {kids[0]} <= {kids[1]} else {kids[1]}", [], all(nonneg)
    if op is ops.MAX:
        return f"{kids[0]} if {kids[0]} >= {kids[1]} else {kids[1]}", [], any(nonneg)
    raise NotImplementedError(f"no semantics for {op}")


def _width_check(operand: str, width: int, nonneg: bool) -> str:
    """Source of the ``not 0 <= operand < 2^width`` domain check."""
    if nonneg:
        return f"{operand} >= {1 << width}"
    return f"not 0 <= {operand} < {1 << width}"


def random_env(widths: Mapping[str, int], rng) -> dict[str, int]:
    """Uniformly random assignment to the given variables."""
    return {name: rng.randrange(1 << width) for name, width in widths.items()}


def exhaustive_envs(widths: Mapping[str, int]) -> Iterator[dict[str, int]]:
    """Iterate every assignment (use only when the input space is small)."""
    names = sorted(widths)
    totals = [1 << widths[n] for n in names]
    count = 1
    for t in totals:
        count *= t
    index = [0] * len(names)
    for _ in range(count):
        yield dict(zip(names, index, strict=True))
        for i in range(len(names)):
            index[i] += 1
            if index[i] < totals[i]:
                break
            index[i] = 0
