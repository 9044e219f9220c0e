"""Immutable expression trees and a small construction DSL.

:class:`Expr` is a frozen tree node: an operator, positional attributes and
child expressions.  Arithmetic Python operators are overloaded for
readability when writing designs (``a + b``, ``x >> 3``); comparison
operators are deliberately *not* overloaded (that would break ``==`` for
structural equality), use :func:`lt`, :func:`eq`, ... instead.

Integers auto-lift to ``CONST`` nodes in every builder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.ir import ops
from repro.ir.ops import Op

ExprLike = "Expr | int"


@dataclass(frozen=True, slots=True)
class Expr:
    """A node of an expression tree (operator, attributes, children)."""

    op: Op
    attrs: tuple = ()
    children: tuple["Expr", ...] = ()
    #: Structural hash, computed at construction from the children's cached
    #: hashes: the tree analyses memoize on Expr keys, and a lazily filled
    #: hash recursed once per level on a deep tree's first probe.
    _hash: int = field(init=False, repr=False, compare=False, default=-1)

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self):
        # The cached hash must NOT cross process boundaries: str hashing is
        # per-process randomized, so a pickled hash would disagree with
        # hashes computed in the receiving process and corrupt dict lookups.
        return (self.op, self.attrs, self.children)

    def __setstate__(self, state) -> None:
        op, attrs, children = state
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "attrs", attrs)
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "_hash", hash((op, attrs, children)))

    def __post_init__(self) -> None:
        if self.op.arity is not None and len(self.children) != self.op.arity:
            raise ValueError(
                f"{self.op.name} expects {self.op.arity} children, "
                f"got {len(self.children)}"
            )
        if self.op is ops.ASSUME and len(self.children) < 2:
            raise ValueError("ASSUME needs an expression and >= 1 constraint")
        if len(self.attrs) != len(self.op.attr_names):
            raise ValueError(
                f"{self.op.name} expects attrs {self.op.attr_names}, "
                f"got {self.attrs!r}"
            )
        object.__setattr__(self, "_hash", hash((self.op, self.attrs, self.children)))

    # ----------------------------------------------------------- leaf helpers
    @property
    def is_const(self) -> bool:
        return self.op is ops.CONST

    @property
    def is_var(self) -> bool:
        return self.op is ops.VAR

    @property
    def value(self) -> int:
        """Value of a CONST node."""
        if self.op is not ops.CONST:
            raise TypeError(f"not a CONST: {self.op}")
        return self.attrs[0]

    @property
    def var_name(self) -> str:
        """Name of a VAR node."""
        if self.op is not ops.VAR:
            raise TypeError(f"not a VAR: {self.op}")
        return self.attrs[0]

    @property
    def var_width(self) -> int:
        """Declared width of a VAR node."""
        if self.op is not ops.VAR:
            raise TypeError(f"not a VAR: {self.op}")
        return self.attrs[1]

    # -------------------------------------------------------------- traversal
    def walk(self) -> Iterator["Expr"]:
        """Yield every distinct subterm once, parents before children (a
        tree walk is exponential on a chain that reuses each wire)."""
        seen: set[Expr] = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            yield node
            stack.extend(node.children)

    def count_nodes(self) -> int:
        """Number of *distinct* subterms (DAG size)."""
        return sum(1 for _ in self.walk())

    def depth(self) -> int:
        """Height of the tree (leaf = 1)."""
        memo: dict[Expr, int] = {}

        def rec(node: "Expr") -> int:
            if node in memo:
                return memo[node]
            if not node.children:
                memo[node] = 1
            else:
                memo[node] = 1 + max(rec(c) for c in node.children)
            return memo[node]

        return rec(self)

    # ------------------------------------------------------ operator sugar
    def __add__(self, other: "Expr | int") -> "Expr":
        return Expr(ops.ADD, (), (self, _lift(other)))

    def __radd__(self, other: int) -> "Expr":
        return Expr(ops.ADD, (), (_lift(other), self))

    def __sub__(self, other: "Expr | int") -> "Expr":
        return Expr(ops.SUB, (), (self, _lift(other)))

    def __rsub__(self, other: int) -> "Expr":
        return Expr(ops.SUB, (), (_lift(other), self))

    def __mul__(self, other: "Expr | int") -> "Expr":
        return Expr(ops.MUL, (), (self, _lift(other)))

    def __rmul__(self, other: int) -> "Expr":
        return Expr(ops.MUL, (), (_lift(other), self))

    def __neg__(self) -> "Expr":
        return Expr(ops.NEG, (), (self,))

    def __lshift__(self, other: "Expr | int") -> "Expr":
        return Expr(ops.SHL, (), (self, _lift(other)))

    def __rshift__(self, other: "Expr | int") -> "Expr":
        return Expr(ops.SHR, (), (self, _lift(other)))

    def __and__(self, other: "Expr | int") -> "Expr":
        return Expr(ops.AND, (), (self, _lift(other)))

    def __or__(self, other: "Expr | int") -> "Expr":
        return Expr(ops.OR, (), (self, _lift(other)))

    def __xor__(self, other: "Expr | int") -> "Expr":
        return Expr(ops.XOR, (), (self, _lift(other)))

    # ---------------------------------------------------------------- display
    def __repr__(self) -> str:
        return pretty(self)


def _lift(value: "Expr | int") -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, int):
        return const(value)
    raise TypeError(f"cannot lift {value!r} into an Expr")


# --------------------------------------------------------------- constructors
def var(name: str, width: int) -> Expr:
    """An unsigned input variable of the given bitwidth."""
    if width <= 0:
        raise ValueError(f"variable width must be positive, got {width}")
    return Expr(ops.VAR, (name, width))


def const(value: int) -> Expr:
    """An integer literal."""
    return Expr(ops.CONST, (int(value),))


def mux(cond: "Expr | int", if_true: "Expr | int", if_false: "Expr | int") -> Expr:
    """The ternary ``cond ? if_true : if_false``."""
    return Expr(ops.MUX, (), (_lift(cond), _lift(if_true), _lift(if_false)))


def assume(expr: "Expr | int", *constraints: "Expr | int") -> Expr:
    """``ASSUME(expr, c1, ..., cn)`` — ``expr`` where all ``ci`` hold, else ``*``."""
    if not constraints:
        raise ValueError("assume() needs at least one constraint")
    kids = (_lift(expr),) + tuple(_lift(c) for c in constraints)
    return Expr(ops.ASSUME, (), kids)


def lzc(value: "Expr | int", width: int) -> Expr:
    """Leading-zero count of ``value`` viewed as a ``width``-bit vector."""
    return Expr(ops.LZC, (width,), (_lift(value),))


def trunc(value: "Expr | int", width: int) -> Expr:
    """``value mod 2**width`` (explicit hardware wrap)."""
    return Expr(ops.TRUNC, (width,), (_lift(value),))


def slice_(value: "Expr | int", hi: int, lo: int) -> Expr:
    """Bit slice ``value[hi:lo]`` (inclusive, hi >= lo)."""
    if hi < lo:
        raise ValueError(f"slice [{hi}:{lo}] is empty")
    return Expr(ops.SLICE, (hi, lo), (_lift(value),))


def concat(msbs: "Expr | int", lsbs: "Expr | int", rhs_width: int) -> Expr:
    """Concatenation ``{msbs, lsbs}`` where ``lsbs`` is ``rhs_width`` bits."""
    return Expr(ops.CONCAT, (rhs_width,), (_lift(msbs), _lift(lsbs)))


def lt(a: "Expr | int", b: "Expr | int") -> Expr:
    """1-bit ``a < b``."""
    return Expr(ops.LT, (), (_lift(a), _lift(b)))


def le(a: "Expr | int", b: "Expr | int") -> Expr:
    """1-bit ``a <= b``."""
    return Expr(ops.LE, (), (_lift(a), _lift(b)))


def gt(a: "Expr | int", b: "Expr | int") -> Expr:
    """1-bit ``a > b``."""
    return Expr(ops.GT, (), (_lift(a), _lift(b)))


def ge(a: "Expr | int", b: "Expr | int") -> Expr:
    """1-bit ``a >= b``."""
    return Expr(ops.GE, (), (_lift(a), _lift(b)))


def eq(a: "Expr | int", b: "Expr | int") -> Expr:
    """1-bit ``a == b``."""
    return Expr(ops.EQ, (), (_lift(a), _lift(b)))


def ne(a: "Expr | int", b: "Expr | int") -> Expr:
    """1-bit ``a != b``."""
    return Expr(ops.NE, (), (_lift(a), _lift(b)))


def lnot(a: "Expr | int") -> Expr:
    """Logical negation: 1 iff ``a == 0``."""
    return Expr(ops.LNOT, (), (_lift(a),))


def bitnot(a: "Expr | int", width: int) -> Expr:
    """Bitwise complement at the given width."""
    return Expr(ops.NOT, (width,), (_lift(a),))


def abs_(a: "Expr | int") -> Expr:
    """Absolute value."""
    return Expr(ops.ABS, (), (_lift(a),))


def min_(a: "Expr | int", b: "Expr | int") -> Expr:
    """Two-input minimum."""
    return Expr(ops.MIN, (), (_lift(a), _lift(b)))


def max_(a: "Expr | int", b: "Expr | int") -> Expr:
    """Two-input maximum."""
    return Expr(ops.MAX, (), (_lift(a), _lift(b)))


# -------------------------------------------------------------------- display
def pretty(expr: Expr) -> str:
    """Compact s-expression-ish rendering used by ``repr``."""
    if expr.op is ops.VAR:
        return expr.var_name
    if expr.op is ops.CONST:
        return str(expr.value)
    if expr.op is ops.MUX:
        c, t, f = (pretty(k) for k in expr.children)
        return f"({c} ? {t} : {f})"
    if expr.op is ops.ASSUME:
        inner = pretty(expr.children[0])
        conds = ", ".join(pretty(c) for c in expr.children[1:])
        return f"assume({inner} | {conds})"
    if expr.op.symbol and expr.op.arity == 2:
        a, b = (pretty(k) for k in expr.children)
        return f"({a} {expr.op.symbol} {b})"
    if expr.op.symbol and expr.op.arity == 1:
        return f"{expr.op.symbol}{pretty(expr.children[0])}"
    if expr.op is ops.SLICE:
        hi, lo = expr.attrs
        return f"{pretty(expr.children[0])}[{hi}:{lo}]"
    attrs = ",".join(str(a) for a in expr.attrs)
    kids = ", ".join(pretty(k) for k in expr.children)
    tag = expr.op.name.lower()
    if attrs:
        return f"{tag}<{attrs}>({kids})"
    return f"{tag}({kids})"


def subterms(exprs: Iterable[Expr]) -> set[Expr]:
    """All distinct subterms across several roots."""
    seen: set[Expr] = set()
    stack = list(exprs)
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(node.children)
    return seen
