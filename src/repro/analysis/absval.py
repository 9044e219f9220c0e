"""The analysis value attached to every e-class: range + totality."""

from __future__ import annotations

from repro.intervals import IntervalSet


class AbsVal:
    """Abstract value of an e-class.

    ``iset`` over-approximates the set of non-``*`` concrete evaluations;
    ``total`` asserts the class never evaluates to ``*``.  The lattice join
    (for provably-equal classes) intersects ranges — every member's
    approximation is valid for all — and ORs totality — one always-defined
    member makes the whole class always defined.

    Values are interned: ``AbsVal(iset, total)`` returns the one instance
    kept on the (itself interned) ``iset`` for that totality, so the
    analysis's memo keys, joins and change tests mostly resolve by
    identity.  Equality and hashing stay structural, because the
    :class:`IntervalSet` intern table is a bounded cache and two equal sets
    may be distinct objects after it is cleared.  Instances are immutable.
    """

    __slots__ = ("iset", "total", "_hash")

    iset: IntervalSet
    total: bool

    def __new__(cls, iset: IntervalSet | None = None, total: bool = False) -> "AbsVal":
        if iset is None:
            # Unpickling a value saved before interning (artifact format 2
            # from older builds): ``copyreg`` calls ``__new__`` bare, then
            # :meth:`__setstate__`.  That value stays a private, equal copy.
            return super().__new__(cls)
        interned = iset._abs
        if interned is None:
            interned = iset._abs = [None, None]
        slot = 1 if total else 0
        self = interned[slot]
        if self is None:
            self = super().__new__(cls)
            object.__setattr__(self, "iset", iset)
            object.__setattr__(self, "total", bool(total))
            object.__setattr__(self, "_hash", hash((iset, self.total)))
            interned[slot] = self
        return self

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"AbsVal is immutable: cannot set {name!r}")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, AbsVal):
            return NotImplemented
        return self.total == other.total and self.iset == other.iset

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Through ``__new__``, so the far side gets its interned instance.
        return (AbsVal, (self.iset, self.total))

    def __setstate__(self, state: list) -> None:
        iset, total = state
        object.__setattr__(self, "iset", iset)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "_hash", hash((iset, total)))

    @staticmethod
    def top() -> "AbsVal":
        return AbsVal(IntervalSet.top(), False)

    def join(self, other: "AbsVal") -> "AbsVal":
        if self is other:
            return self
        total = self.total or other.total
        if self.iset is other.iset:
            return self if total == self.total else AbsVal(self.iset, total)
        return AbsVal(self.iset.intersect(other.iset), total)

    def __repr__(self) -> str:
        tag = "total" if self.total else "partial"
        return f"AbsVal({self.iset}, {tag})"
