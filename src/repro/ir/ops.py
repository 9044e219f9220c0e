"""Operator catalogue of the intermediate language.

Every operator is a singleton :class:`Op` carrying its arity and the names of
its immutable attributes.  Attributes are part of e-node identity (an 8-bit
``TRUNC`` is a different function from a 12-bit one); children are expression
(or e-class) references.

Leaf operators:

=========  =======================  =====================================
operator   attributes               meaning
=========  =======================  =====================================
``VAR``    ``(name, width)``        unsigned input, domain ``[0, 2^w - 1]``
``CONST``  ``(value,)``             integer literal (may be negative)
=========  =======================  =====================================

``ASSUME`` is variadic: child 0 is the guarded expression, children 1..n are
constraint expressions treated as a *set* (order-insensitive; the e-graph
canonicalizes the tail sorted by e-class id).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True, eq=False)
class Op:
    """An operator of the intermediate language.

    ``arity`` is the number of expression children; ``None`` marks the
    variadic ``ASSUME``.  ``attr_names`` documents the positional attribute
    tuple carried by nodes of this operator.

    Operators are singletons (``__reduce__`` resolves unpickles back to the
    catalogue), so equality and hashing are by identity — every containing
    dataclass (expressions, e-nodes, patterns) and every ``op in (...)``
    dispatch compares one pointer instead of three fields.
    """

    name: str
    arity: int | None
    attr_names: tuple[str, ...] = field(default=())
    symbol: str = ""

    def __repr__(self) -> str:
        return self.name

    @property
    def is_leaf(self) -> bool:
        return self.arity == 0

    @property
    def is_variadic(self) -> bool:
        return self.arity is None

    def __reduce__(self):
        # Operators are singletons and the whole codebase dispatches on
        # identity (``op is ops.LZC``).  Unpickling must therefore resolve to
        # the interned instance — the default by-value protocol would hand a
        # worker process fresh Op objects that fail every identity check.
        return (_restore_op, (self.name,))


def _restore_op(name: str) -> "Op":
    return OPS_BY_NAME[name]


VAR = Op("VAR", 0, ("name", "width"))
CONST = Op("CONST", 0, ("value",))

ADD = Op("ADD", 2, symbol="+")
SUB = Op("SUB", 2, symbol="-")
MUL = Op("MUL", 2, symbol="*")
NEG = Op("NEG", 1, symbol="-")

SHL = Op("SHL", 2, symbol="<<")
SHR = Op("SHR", 2, symbol=">>")

AND = Op("AND", 2, symbol="&")
OR = Op("OR", 2, symbol="|")
XOR = Op("XOR", 2, symbol="^")
NOT = Op("NOT", 1, ("width",), symbol="~")
LNOT = Op("LNOT", 1, symbol="!")

LT = Op("LT", 2, symbol="<")
LE = Op("LE", 2, symbol="<=")
GT = Op("GT", 2, symbol=">")
GE = Op("GE", 2, symbol=">=")
EQ = Op("EQ", 2, symbol="==")
NE = Op("NE", 2, symbol="!=")

MUX = Op("MUX", 3)
LZC = Op("LZC", 1, ("width",))
TRUNC = Op("TRUNC", 1, ("width",))
SLICE = Op("SLICE", 1, ("hi", "lo"))
CONCAT = Op("CONCAT", 2, ("rhs_width",))
ABS = Op("ABS", 1)
MIN = Op("MIN", 2)
MAX = Op("MAX", 2)

ASSUME = Op("ASSUME", None)

ALL_OPS: tuple[Op, ...] = (
    VAR, CONST, ADD, SUB, MUL, NEG, SHL, SHR, AND, OR, XOR, NOT, LNOT,
    LT, LE, GT, GE, EQ, NE, MUX, LZC, TRUNC, SLICE, CONCAT, ABS, MIN, MAX,
    ASSUME,
)

OPS_BY_NAME: dict[str, Op] = {op.name: op for op in ALL_OPS}

#: Operators with children that are strict in ``*``, in catalogue order:
#: ``mux-pull`` pulls a mux through them, Table I's row 2 an ASSUME.
STRICT: tuple[Op, ...] = tuple(op for op in ALL_OPS if op.arity and op is not MUX)

#: Comparison operators returning a 1-bit 0/1 result.
COMPARISONS: frozenset[Op] = frozenset({LT, LE, GT, GE, EQ, NE})

#: Operators whose two children commute.
COMMUTATIVE: frozenset[Op] = frozenset({ADD, MUL, AND, OR, XOR, MIN, MAX})
