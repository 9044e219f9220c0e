"""Canonical finite unions of integer intervals (the abstract domain A).

An :class:`IntervalSet` is an immutable, sorted, pairwise-disjoint,
non-adjacent tuple of :class:`~repro.intervals.interval.Interval`.  It is the
e-class analysis data of the paper (Section III-B): a conservative
over-approximation of every non-``*`` evaluation of the expressions in an
e-class.

Instances are hash-consed: constructing a set whose canonical parts tuple was
seen before returns the *same* object, so the equality-saturation hot path
(which recomputes identical ranges millions of times) compares and hashes
mostly by identity.  The intern table is a bounded cache — clearing it is
always sound because ``__eq__`` stays structural.

All transfer functions are *sound*: for concrete values ``a in A`` and
``b in B``, ``op(a, b) in A.op(B)``.  The test-suite checks this exhaustively
on small sets and by randomized sampling (hypothesis) on large ones.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from repro.intervals.bitops import max_and, max_or, max_xor, min_and, min_or, min_xor
from repro.intervals.interval import Interval

#: Widening cap: maximum number of disjoint intervals kept per set.  Beyond
#: this, the pairs separated by the smallest gaps are hulled together.  The
#: paper notes the domain "incurs additional computational complexity"; the
#: cap keeps the analysis linear in practice while remaining sound.
DEFAULT_MAX_INTERVALS = 12

#: Largest left-shift amount ``shl`` evaluates bounds for.  Beyond it the
#: result is taken as unbounded (sound): ``x << 2**255`` does not fit in
#: memory, and no datapath shifts that far.
MAX_SHIFT_BOUND = 1 << 16


def _add_bound(a: int | None, b: int | None) -> int | None:
    if a is None or b is None:
        return None
    return a + b


def _canonicalize(parts: Iterable[Interval]) -> tuple[Interval, ...]:
    """Sort, merge overlapping/adjacent intervals, drop nothing."""
    items = sorted(
        parts,
        key=lambda iv: (iv.lo is not None, iv.lo if iv.lo is not None else 0),
    )
    merged: list[Interval] = []
    for item in items:
        if merged and merged[-1].overlaps_or_adjacent(item):
            merged[-1] = merged[-1].hull(item)
        else:
            merged.append(item)
    return tuple(merged)


def _coalesce(parts: tuple[Interval, ...], cap: int) -> tuple[Interval, ...]:
    """Hull together smallest-gap neighbours until at most ``cap`` remain."""
    items = list(parts)
    while len(items) > cap:
        best_index = 0
        best_gap: int | None = None
        for i in range(len(items) - 1):
            hi = items[i].hi
            lo = items[i + 1].lo
            if hi is None or lo is None:
                gap = None
            else:
                gap = lo - hi
            if gap is not None and (best_gap is None or gap < best_gap):
                best_gap = gap
                best_index = i
        items[best_index : best_index + 2] = [
            items[best_index].hull(items[best_index + 1])
        ]
    return tuple(items)


#: Intern table mapping canonical parts tuples to their unique instance.
_INTERN: dict[tuple[Interval, ...], "IntervalSet"] = {}
_INTERN_CAP = 1 << 16


class IntervalSet:
    """Immutable canonical union of integer intervals (hash-consed)."""

    #: ``_storage`` memoizes :meth:`storage_width` (``-1`` until first
    #: asked): extraction prices every e-node from its classes' widths, and
    #: interning makes one set serve every class with that range.
    #: ``_point``, ``_top`` and ``_truth`` hold :meth:`as_point`,
    #: :attr:`is_top` and :meth:`truthiness`, computed once when the set is
    #: first interned: the saturation hot path asks them of the same few
    #: sets millions of times.  ``_abs`` is where the e-class analysis
    #: interns its values over this set (:class:`repro.analysis.AbsVal`),
    #: ``None`` until it first does.  Pickling ships only ``parts`` (see
    #: :meth:`__reduce__`), so no memo crosses a process boundary.
    __slots__ = ("parts", "_hash", "_storage", "_point", "_top", "_truth", "_abs")

    parts: tuple[Interval, ...]

    def __new__(cls, parts: Iterable[Interval] = ()) -> "IntervalSet":
        parts = tuple(parts)
        cached = _INTERN.get(parts)
        if cached is not None:
            return cached
        self = super().__new__(cls)
        self.parts = parts
        self._hash = hash(parts)
        self._storage = -1
        point = None
        top = False
        if len(parts) == 1:
            lo, hi = parts[0].lo, parts[0].hi
            if lo is not None and lo == hi:
                point = lo
            top = lo is None and hi is None
        self._point = point
        self._top = top
        if point == 0:
            self._truth = False
        elif parts and not any(p.contains(0) for p in parts):
            self._truth = True
        else:
            self._truth = None
        self._abs = None
        if len(_INTERN) >= _INTERN_CAP:
            _INTERN.clear()
        _INTERN[parts] = self
        return self

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Unpickling must route through ``__new__`` *with* the parts so the
        # result is interned.  Pickle's default slots protocol calls
        # ``__new__(cls)`` with no arguments — which returns the interned
        # empty set — and then overwrites its slots in place, corrupting the
        # intern table for every later ``IntervalSet.empty()`` in the
        # receiving process.  (Shard fan-out pickles range contexts across
        # process boundaries, so this path is load-bearing.)
        return (IntervalSet, (self.parts,))

    # ----------------------------------------------------------- constructors
    @staticmethod
    def empty() -> "IntervalSet":
        """The empty set (an infeasible / dead e-class)."""
        return IntervalSet(())

    @staticmethod
    def top() -> "IntervalSet":
        """All of Z."""
        return IntervalSet((Interval(None, None),))

    @staticmethod
    def of(lo: int | None, hi: int | None) -> "IntervalSet":
        """Single interval ``[lo, hi]`` (``None`` bounds are infinite)."""
        return IntervalSet((Interval(lo, hi),))

    @staticmethod
    def point(value: int) -> "IntervalSet":
        """The singleton ``{value}``."""
        return IntervalSet((Interval(value, value),))

    @staticmethod
    def unsigned(width: int) -> "IntervalSet":
        """The full range of a ``width``-bit unsigned value."""
        if width < 0:
            raise ValueError(f"negative width {width}")
        if width == 0:
            return IntervalSet.point(0)
        return IntervalSet.of(0, (1 << width) - 1)

    @staticmethod
    def from_intervals(
        parts: Iterable[Interval], cap: int = DEFAULT_MAX_INTERVALS
    ) -> "IntervalSet":
        """Canonicalize an arbitrary collection of intervals."""
        return IntervalSet(_coalesce(_canonicalize(parts), cap))

    @staticmethod
    def from_values(values: Iterable[int]) -> "IntervalSet":
        """Exact set of the given concrete integers."""
        return IntervalSet.from_intervals(
            (Interval(v, v) for v in set(values)), cap=10**9
        )

    # ------------------------------------------------------------- predicates
    @property
    def is_empty(self) -> bool:
        return not self.parts

    @property
    def is_top(self) -> bool:
        return self._top

    @property
    def bounded(self) -> bool:
        return all(p.bounded for p in self.parts)

    def as_point(self) -> int | None:
        """The single contained value, or ``None`` if not a singleton."""
        return self._point

    def min(self) -> int | None:
        """Least element (``None`` when empty or unbounded below)."""
        if not self.parts:
            return None
        return self.parts[0].lo

    def max(self) -> int | None:
        """Greatest element (``None`` when empty or unbounded above)."""
        if not self.parts:
            return None
        return self.parts[-1].hi

    def contains(self, value: int) -> bool:
        return any(p.contains(value) for p in self.parts)

    def __contains__(self, value: int) -> bool:
        return self.contains(value)

    def issubset(self, other: "IntervalSet") -> bool:
        """True when every element of self lies in ``other``."""
        return all(
            any(q.contains_interval(p) for q in other.parts) for p in self.parts
        )

    def size(self) -> int | None:
        """Total number of integers, or ``None`` when infinite."""
        total = 0
        for p in self.parts:
            s = p.size()
            if s is None:
                return None
            total += s
        return total

    def iter_values(self, limit: int = 1 << 20) -> Iterator[int]:
        """Iterate all members (bounded sets only; guarded by ``limit``)."""
        count = self.size()
        if count is None or count > limit:
            raise ValueError(f"set too large to enumerate: {self}")
        for p in self.parts:
            yield from range(p.lo, p.hi + 1)

    # ---------------------------------------------------------------- set ops
    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet.from_intervals(self.parts + other.parts)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        # Identity/TOP fast paths: interning makes `is` checks meaningful and
        # the rebuild hot loop intersects with TOP and with itself constantly.
        if self is other:
            return self
        if self._top or not other.parts:
            return other
        if other._top or not self.parts:
            return self
        pieces = []
        for p in self.parts:
            for q in other.parts:
                both = p.intersect(q)
                if both is not None:
                    pieces.append(both)
        return IntervalSet.from_intervals(pieces)

    def remove_point(self, value: int) -> "IntervalSet":
        """Set difference with the singleton ``{value}`` (the != constraint)."""
        pieces: list[Interval] = []
        for p in self.parts:
            if not p.contains(value):
                pieces.append(p)
                continue
            if p.lo is None or p.lo < value:
                pieces.append(Interval(p.lo, value - 1))
            if p.hi is None or p.hi > value:
                pieces.append(Interval(value + 1, p.hi))
        return IntervalSet.from_intervals(pieces)

    def hull(self) -> "IntervalSet":
        """Convex hull (single interval)."""
        if not self.parts:
            return self
        return IntervalSet.of(self.min(), self.max())

    # ------------------------------------------------------------- arithmetic
    def _pairwise(
        self,
        other: "IntervalSet",
        combine: Callable[[Interval, Interval], Iterable[Interval]],
    ) -> "IntervalSet":
        pieces: list[Interval] = []
        for p in self.parts:
            for q in other.parts:
                pieces.extend(combine(p, q))
        return IntervalSet.from_intervals(pieces)

    def add(self, other: "IntervalSet") -> "IntervalSet":
        """Pointwise sum."""

        def combine(p: Interval, q: Interval) -> list[Interval]:
            return [Interval(_add_bound(p.lo, q.lo), _add_bound(p.hi, q.hi))]

        return self._pairwise(other, combine)

    def neg(self) -> "IntervalSet":
        """Pointwise negation."""
        pieces = [
            Interval(
                None if p.hi is None else -p.hi,
                None if p.lo is None else -p.lo,
            )
            for p in self.parts
        ]
        return IntervalSet.from_intervals(pieces)

    def sub(self, other: "IntervalSet") -> "IntervalSet":
        """Pointwise difference."""
        return self.add(other.neg())

    def mul(self, other: "IntervalSet") -> "IntervalSet":
        """Pointwise product (corner evaluation; TOP if unbounded)."""

        def combine(p: Interval, q: Interval) -> list[Interval]:
            if not (p.bounded and q.bounded):
                return [Interval(None, None)]
            corners = [p.lo * q.lo, p.lo * q.hi, p.hi * q.lo, p.hi * q.hi]
            return [Interval(min(corners), max(corners))]

        return self._pairwise(other, combine)

    @staticmethod
    def _split_at_zero(p: Interval) -> list[Interval]:
        """Split an interval into its negative and non-negative pieces."""
        if p.lo is not None and p.lo >= 0:
            return [p]
        if p.hi is not None and p.hi < 0:
            return [p]
        return [Interval(p.lo, -1), Interval(0, p.hi)]

    def shl(self, amount: "IntervalSet") -> "IntervalSet":
        """Pointwise ``x << s`` (``x * 2**s``); negative shifts excluded."""
        amount = amount.intersect(IntervalSet.of(0, None))

        def combine(p: Interval, q: Interval) -> list[Interval]:
            if not p.bounded or q.hi is None or q.hi > MAX_SHIFT_BOUND:
                return [Interval(None, None)]
            out = []
            for piece in self._split_at_zero(p):
                corners = [
                    piece.lo << q.lo,
                    piece.lo << q.hi,
                    piece.hi << q.lo,
                    piece.hi << q.hi,
                ]
                out.append(Interval(min(corners), max(corners)))
            return out

        if amount.is_empty or self.is_empty:
            return IntervalSet.empty()
        return self._pairwise(amount, combine)

    def shr(self, amount: "IntervalSet") -> "IntervalSet":
        """Pointwise arithmetic/floor ``x >> s``; negative shifts excluded."""
        amount = amount.intersect(IntervalSet.of(0, None))

        def combine(p: Interval, q: Interval) -> list[Interval]:
            if not p.bounded:
                return [Interval(None, None)]
            hi_s = q.hi
            if hi_s is None:
                # x >> inf tends to 0 (x >= 0) or -1 (x < 0); include both
                # limits alongside the smallest-shift corners.
                hi_s = max(abs(p.lo), abs(p.hi)).bit_length() + 1
            out = []
            for piece in self._split_at_zero(p):
                corners = [
                    piece.lo >> q.lo,
                    piece.lo >> hi_s,
                    piece.hi >> q.lo,
                    piece.hi >> hi_s,
                ]
                out.append(Interval(min(corners), max(corners)))
            return out

        if amount.is_empty or self.is_empty:
            return IntervalSet.empty()
        return self._pairwise(amount, combine)

    def abs(self) -> "IntervalSet":
        """Pointwise absolute value."""
        pieces = []
        for p in self.parts:
            for piece in self._split_at_zero(p):
                if piece.hi is not None and piece.hi < 0:
                    lo = None if piece.hi is None else -piece.hi
                    hi = None if piece.lo is None else -piece.lo
                    pieces.append(Interval(lo, hi))
                else:
                    pieces.append(piece)
        return IntervalSet.from_intervals(pieces)

    def min_with(self, other: "IntervalSet") -> "IntervalSet":
        """Pointwise ``min(a, b)``."""

        def combine(p: Interval, q: Interval) -> list[Interval]:
            if p.lo is None or q.lo is None:
                lo = None
            else:
                lo = min(p.lo, q.lo)
            if p.hi is None:
                hi = q.hi
            elif q.hi is None:
                hi = p.hi
            else:
                hi = min(p.hi, q.hi)
            return [Interval(lo, hi)]

        return self._pairwise(other, combine)

    def max_with(self, other: "IntervalSet") -> "IntervalSet":
        """Pointwise ``max(a, b)``."""
        return self.neg().min_with(other.neg()).neg()

    def trunc_mod(self, modulus: int) -> "IntervalSet":
        """Conservative ``x mod p`` per eq. (5) of the paper.

        ``[l, u] mod p`` is ``[l mod p, u mod p]`` when ``floor(l/p) ==
        floor(u/p)`` (the interval lies within one modular block) and the full
        ``[0, p-1]`` otherwise.
        """
        if modulus <= 0:
            raise ValueError(f"modulus must be positive, got {modulus}")
        pieces = []
        for p in self.parts:
            if not p.bounded or (p.lo // modulus) != (p.hi // modulus):
                pieces.append(Interval(0, modulus - 1))
            else:
                pieces.append(Interval(p.lo % modulus, p.hi % modulus))
        return IntervalSet.from_intervals(pieces)

    # ----------------------------------------------------------------- bitwise
    def _nonneg_box(self) -> tuple[int, int] | None:
        """Bounded non-negative hull ``(lo, hi)`` or ``None``."""
        lo, hi = self.min(), self.max()
        if lo is None or hi is None or lo < 0:
            return None
        return lo, hi

    def _bitwise(
        self,
        other: "IntervalSet",
        lo_fn: Callable[[int, int, int, int], int],
        hi_fn: Callable[[int, int, int, int], int],
    ) -> "IntervalSet":
        if self.is_empty or other.is_empty:
            return IntervalSet.empty()
        a = self._nonneg_box()
        b = other._nonneg_box()
        if a is None or b is None:
            return IntervalSet.top()

        def combine(p: Interval, q: Interval) -> list[Interval]:
            return [
                Interval(lo_fn(p.lo, p.hi, q.lo, q.hi), hi_fn(p.lo, p.hi, q.lo, q.hi))
            ]

        return self._pairwise(other, combine)

    def bit_and(self, other: "IntervalSet") -> "IntervalSet":
        """Pointwise ``a & b`` (non-negative operands; else TOP)."""
        return self._bitwise(other, min_and, max_and)

    def bit_or(self, other: "IntervalSet") -> "IntervalSet":
        """Pointwise ``a | b`` (non-negative operands; else TOP)."""
        return self._bitwise(other, min_or, max_or)

    def bit_xor(self, other: "IntervalSet") -> "IntervalSet":
        """Pointwise ``a ^ b`` (non-negative operands; else TOP)."""
        return self._bitwise(other, min_xor, max_xor)

    def bit_not(self, width: int) -> "IntervalSet":
        """Pointwise ``(2**width - 1) - a`` — exact (affine)."""
        mask = (1 << width) - 1
        return IntervalSet.point(mask).sub(self)

    def lzc(self, width: int) -> "IntervalSet":
        """Leading-zero count of a ``width``-bit value.

        Values outside ``[0, 2**width)`` evaluate to ``*`` concretely and are
        excluded.  On an interval ``[l, u]`` the count ranges contiguously
        over ``[width - bit_length(u), width - bit_length(l)]``.
        """
        clipped = self.intersect(IntervalSet.unsigned(width))
        pieces = [
            Interval(width - p.hi.bit_length(), width - p.lo.bit_length())
            for p in clipped.parts
        ]
        return IntervalSet.from_intervals(pieces)

    # -------------------------------------------------------------- comparisons
    def _compare(
        self, other: "IntervalSet", definitely: Callable[[], bool | None]
    ) -> "IntervalSet":
        if self.is_empty or other.is_empty:
            return IntervalSet.empty()
        verdict = definitely()
        if verdict is True:
            return IntervalSet.point(1)
        if verdict is False:
            return IntervalSet.point(0)
        return IntervalSet.of(0, 1)

    def cmp_lt(self, other: "IntervalSet") -> "IntervalSet":
        """Abstract ``a < b`` as a subset of {0, 1}."""

        def verdict() -> bool | None:
            if _hi_lt(self.max(), other.min()):
                return True
            if _lo_ge(self.min(), other.max()):
                return False
            return None

        return self._compare(other, verdict)

    def cmp_le(self, other: "IntervalSet") -> "IntervalSet":
        """Abstract ``a <= b`` as a subset of {0, 1}."""
        return other.cmp_lt(self).logical_not()

    def cmp_gt(self, other: "IntervalSet") -> "IntervalSet":
        """Abstract ``a > b`` as a subset of {0, 1}."""
        return other.cmp_lt(self)

    def cmp_ge(self, other: "IntervalSet") -> "IntervalSet":
        """Abstract ``a >= b`` as a subset of {0, 1}."""
        return self.cmp_lt(other).logical_not()

    def cmp_eq(self, other: "IntervalSet") -> "IntervalSet":
        """Abstract ``a == b`` as a subset of {0, 1}."""

        def verdict() -> bool | None:
            a, b = self.as_point(), other.as_point()
            if a is not None and a == b:
                return True
            if self.intersect(other).is_empty:
                return False
            return None

        return self._compare(other, verdict)

    def cmp_ne(self, other: "IntervalSet") -> "IntervalSet":
        """Abstract ``a != b`` as a subset of {0, 1}."""
        return self.cmp_eq(other).logical_not()

    def logical_not(self) -> "IntervalSet":
        """Abstract C-style ``!a`` (1 iff a == 0) as a subset of {0, 1}."""
        if self.is_empty:
            return self
        if self.as_point() == 0:
            return IntervalSet.point(1)
        if not self.contains(0):
            return IntervalSet.point(0)
        return IntervalSet.of(0, 1)

    def truthiness(self) -> bool | None:
        """True / False when the set is definitely nonzero / zero, else None."""
        return self._truth

    # ------------------------------------------------------------------ widths
    def unsigned_width(self) -> int | None:
        """Minimum unsigned bitwidth holding every member, or ``None``."""
        lo, hi = self.min(), self.max()
        if lo is None or hi is None or lo < 0:
            return None
        return max(hi.bit_length(), 1)

    def signed_width(self) -> int | None:
        """Minimum two's-complement bitwidth holding every member."""
        lo, hi = self.min(), self.max()
        if lo is None or hi is None:
            return None
        if lo >= 0:
            return max(hi.bit_length(), 1) + 1
        return max(hi.bit_length() + 1, (-lo - 1).bit_length() + 1, 1)

    def storage_width(self) -> int | None:
        """Bits needed in hardware: unsigned if possible, else signed."""
        width = self._storage
        if width == -1:
            width = self.unsigned_width()
            if width is None:
                width = self.signed_width()
            self._storage = width
        return width

    def __repr__(self) -> str:
        if not self.parts:
            return "{}"
        return " u ".join(repr(p) for p in self.parts)


def _hi_lt(a: int | None, b: int | None) -> bool:
    """max bound ``a`` strictly below min bound ``b`` (None = infinite)."""
    return a is not None and b is not None and a < b


def _lo_ge(a: int | None, b: int | None) -> bool:
    """min bound ``a`` at or above max bound ``b`` (None = infinite)."""
    return a is not None and b is not None and a >= b
