"""The pattern language of declarative rewrites.

Patterns are written as s-expressions, egg-style::

    (+ ?a ?b)             commutativity binding ?a, ?b to e-classes
    (* ?a 2)              literal integer -> CONST node
    (lzc ?w ?a)           operator attributes come first (?w binds the width)
    (<< ?a (const ?s))    ?s binds the value of the class's first CONST member
    (trunc (min ?v ?w) ?a)  a right-hand side computes an attribute
    (mux ?c ?t ?f)        ternary
    (assume ?x ?cs...)    ?cs... binds an ASSUME's constraint tail
    ?e@(- ?a ?b)          ?e also names the class the node matched in
    (strict ?xs...)       any member with a strict operator (an OpSet)

``?name`` in a child position is a :class:`PatternVar` (binds an e-class id);
in an attribute position it is an :class:`AttrVar` (binds the attribute
value).  ``?name...``, the last child of an ``ASSUME`` left-hand side,
binds the tuple of its constraint classes; a right-hand ``ASSUME`` splices
the tails it names into its constraint set.  An :class:`AttrExpr` computes
an attribute from bound ones; only right-hand sides and guards use them,
and only guards read a class's range (``(lo ?x)``, ``(hi ?x)``).

An :class:`OpSet` node matches, in member order, every member whose
operator is in the set, binding the set's name to that node and its
``?xs...`` tail to the node's children.  On a right-hand side,
``(strict ?xs... T)`` rebuilds the matched operator, with its attributes,
over one copy of ``T`` per class of ``?xs`` (``T``'s ``?xs`` naming that
class).  Patterns are searched by the compiled matchers and built by the
compiled builders of :mod:`repro.egraph.query`.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from types import MappingProxyType
from typing import Union

from repro.ir import ops
from repro.ir.ops import Op


@dataclass(frozen=True, slots=True)
class PatternVar:
    """Binds an e-class id, or with ``tail`` a tuple of them."""

    name: str
    tail: bool = False

    def __repr__(self) -> str:
        return f"?{self.name}..." if self.tail else f"?{self.name}"


@dataclass(frozen=True, slots=True)
class AttrVar:
    """Binds an operator attribute value (e.g. a width)."""

    name: str

    def __repr__(self) -> str:
        return f"?{self.name}"


#: Functions an :class:`AttrExpr` may apply, by their pattern symbol.
ATTR_FUNCTIONS = MappingProxyType({
    "min": min, "max": max, "+": operator.add, "-": operator.sub, "bitlen": int.bit_length,
    "log2": lambda value: value.bit_length() - 1, "exp2": lambda value: 1 << value,
    "lo": None, "hi": None,  # a class's range bounds (see ``eval_attr``)
})


@dataclass(frozen=True, slots=True)
class AttrExpr:
    """An attribute computed from bound ones, e.g. ``(- ?w ?s)``."""

    fn: str
    args: tuple

    def __repr__(self) -> str:
        return "(" + " ".join([self.fn, *map(repr, self.args)]) + ")"


def eval_attr(attr, env: dict, bounds=None):
    """The value of an attribute slot (literal, variable or expression);
    ``bounds(name)`` is ``(lo, hi)`` of the range of the class ``name``
    binds, and an expression over a missing bound is ``None``."""
    if isinstance(attr, AttrVar):
        return env[attr.name]
    if isinstance(attr, AttrExpr):
        if attr.fn in ("lo", "hi"):
            return bounds(attr.args[0].name)[attr.fn == "hi"]
        args = [eval_attr(a, env, bounds) for a in attr.args]
        return None if None in args else ATTR_FUNCTIONS[attr.fn](*args)
    return attr


@dataclass(frozen=True, slots=True)
class OpSet:
    """The operator of a node that matches any operator in ``ops``; the
    set's ``name`` binds the matched node."""

    name: str
    ops: tuple[Op, ...]
    arity = None
    attr_names = ()


@dataclass(frozen=True, slots=True)
class PatternNode:
    """An operator application over sub-patterns; ``name`` (``?name@``)
    also binds the class it matches in."""

    op: "Op | OpSet"
    attrs: tuple = ()
    children: tuple["Pattern", ...] = ()
    name: str | None = None

    def __repr__(self) -> str:
        parts = [self.op.name.lower()]
        parts += [repr(a) for a in self.attrs]
        parts += [repr(c) for c in self.children]
        named = f"?{self.name}@" if self.name else ""
        return named + "(" + " ".join(parts) + ")"


Pattern = Union[PatternVar, PatternNode]

#: Symbols accepted by :func:`parse_pattern`, mapped to operators (or an
#: operator set).  The number of leading attribute slots is given by
#: ``op.attr_names``.
_SYMBOLS: dict[str, "Op | OpSet"] = {
    "+": ops.ADD,
    "-": ops.SUB,
    "*": ops.MUL,
    "neg": ops.NEG,
    "<<": ops.SHL,
    ">>": ops.SHR,
    "&": ops.AND,
    "|": ops.OR,
    "^": ops.XOR,
    "bnot": ops.NOT,
    "lnot": ops.LNOT,
    "<": ops.LT,
    "<=": ops.LE,
    ">": ops.GT,
    ">=": ops.GE,
    "==": ops.EQ,
    "!=": ops.NE,
    "mux": ops.MUX,
    "lzc": ops.LZC,
    "trunc": ops.TRUNC,
    "slice": ops.SLICE,
    "concat": ops.CONCAT,
    "abs": ops.ABS,
    "min": ops.MIN,
    "max": ops.MAX,
    "assume": ops.ASSUME,
    "const": ops.CONST,
    "strict": OpSet("strict", ops.STRICT),
}

_TOKEN = re.compile(r"\(|\)|[^\s()]+")


def parse_pattern(text: str, attr: bool = False) -> Pattern:
    """Parse an s-expression pattern string; with ``attr=True``, one
    attribute slot instead (``3``, ``?w`` or ``(- ?w ?s)``, as guards such
    as :func:`~repro.rewrites.soundness.fits` take widths)."""
    tokens = _TOKEN.findall(text)
    pos = 0

    def take() -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError(f"unexpected end of pattern: {text!r}")
        pos += 1
        return tokens[pos - 1]

    def until_close(item) -> tuple:
        out = []
        while tokens[pos] != ")":
            out.append(item())
        take()
        return tuple(out)

    def parse_attr():
        tok = take()
        if tok == "(":
            fn = take()
            if fn not in ATTR_FUNCTIONS:
                raise ValueError(f"unknown attribute function {fn!r} in {text!r}")
            return AttrExpr(fn, until_close(parse_attr))
        return AttrVar(tok[1:]) if tok.startswith("?") else int(tok)

    def parse() -> Pattern:
        tok = take()
        if tok.startswith("?") and tok.endswith("@"):
            node = parse()
            if not isinstance(node, PatternNode):
                raise ValueError(f"{tok} must name an operator node in {text!r}")
            return PatternNode(node.op, node.attrs, node.children, tok[1:-1])
        if tok == "(":
            head = take()
            op = _SYMBOLS.get(head)
            if op is None:
                raise ValueError(f"unknown operator {head!r} in {text!r}")
            attrs = tuple(parse_attr() for _ in op.attr_names)
            children = until_close(parse)
            tails = class_vars(PatternNode(op, (), children), tails=True)
            if tails and op is not ops.ASSUME and not isinstance(op, OpSet):
                raise ValueError(f"only an ASSUME or an OpSet has a tail: {text!r}")
            if op.arity is not None and len(children) != op.arity:
                raise ValueError(
                    f"{op.name} wants {op.arity} children, got "
                    f"{len(children)} in {text!r}"
                )
            return PatternNode(op, attrs, children)
        if tok == ")":
            raise ValueError(f"unbalanced ')' in {text!r}")
        if tok.startswith("?"):
            name = tok[1:].removesuffix("...")
            return PatternVar(name, name != tok[1:])
        return PatternNode(ops.CONST, (int(tok),), ())

    result = parse_attr() if attr else parse()
    if pos != len(tokens):
        raise ValueError(f"trailing tokens in {text!r}")
    return result


def as_pattern(spec: "Pattern | str") -> Pattern:
    """Accept a pre-built pattern or an s-expression string."""
    if isinstance(spec, str):
        return parse_pattern(spec)
    return spec


def pattern_vars(pattern: Pattern) -> set[str]:
    """All ?names appearing in the pattern (class and attr vars)."""
    out: set[str] = set()
    stack = [pattern]
    while stack:
        p = stack.pop()
        if isinstance(p, (PatternVar, AttrVar)):
            out.add(p.name)
        elif isinstance(p, AttrExpr):
            stack.extend(p.args)
        elif isinstance(p, PatternNode):
            if p.name:
                out.add(p.name)
            if isinstance(p.op, OpSet):
                out.add(p.op.name)
            stack.extend(p.attrs)
            stack.extend(p.children)
    return out


def class_vars(pattern: Pattern, tails: bool = False) -> set[str]:
    """The ?names in child positions (they bind e-classes, not attributes);
    with ``tails``, only those of constraint tails."""
    if isinstance(pattern, PatternVar):
        return {pattern.name} if pattern.tail or not tails else set()
    return set().union(*(class_vars(c, tails) for c in pattern.children))


def named(pattern: Pattern) -> dict[str, PatternNode]:
    """The nodes an as-pattern ``?name@(...)`` names, by name."""
    if isinstance(pattern, PatternVar):
        return {}
    out = {pattern.name: pattern} if pattern.name else {}
    for child in pattern.children:
        out.update(named(child))
    return out


def inline(pattern: Pattern, names: dict[str, PatternNode]) -> Pattern:
    """``pattern`` with each ``?name@(...)`` of ``names``, and each bare
    ``?name`` of one, written out as the node it names."""
    if isinstance(pattern, PatternVar):
        node = names.get(pattern.name)
        return pattern if node is None or pattern.tail else inline(node, names)
    kids = tuple(inline(child, names) for child in pattern.children)
    return PatternNode(pattern.op, pattern.attrs, kids)
