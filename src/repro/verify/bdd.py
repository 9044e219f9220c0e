"""A compact ROBDD engine (unique table + memoized ITE)."""

from __future__ import annotations

import sys
import time
from typing import Callable


class BddLimitError(RuntimeError):
    """The node budget was exhausted (caller should fall back).

    ``nodes`` carries the table size at the stop, so the caller can charge
    the spend into a resource ledger even though the proof was abandoned.
    """

    def __init__(self, message: str, nodes: int = 0) -> None:
        super().__init__(message)
        self.nodes = nodes


class BddDeadlineError(BddLimitError):
    """The wall-clock deadline passed mid-build (caller should fall back)."""


#: How many node insertions pass between deadline polls: cheap enough to
#: stay off the ITE hot path, tight enough that a blowing-up BDD stops
#: within a few hundred nodes of the deadline.
_DEADLINE_POLL_INTERVAL = 256

#: How many ``ite`` calls pass between deadline polls.  Memoized/hash-cons
#: hits do work without inserting nodes, so insertion-only polling would
#: let lookup-dominated phases run unchecked past the deadline.
_ITE_POLL_INTERVAL = 4096

#: Variable index of the terminal rows: after every real variable in the
#: order, so :meth:`BDD.ite` needs no terminal special case.
_TERMINAL_VAR = sys.maxsize


class BDD:
    """Reduced ordered BDDs over variables ``0 .. num_vars-1``.

    Node ids: 0 and 1 are the terminals; internal nodes are triples
    ``(var, low, high)`` interned in a unique table.  ``low`` is the cofactor
    for var=0.  Variable order is the natural integer order.

    ``deadline`` (an absolute instant on ``clock``, injectable for tests)
    makes the build interruptible: node creation polls the clock every
    :data:`_DEADLINE_POLL_INTERVAL` insertions and raises
    :class:`BddDeadlineError` once the instant passes, so a blowing-up
    equivalence check degrades instead of overshooting a governed run's
    budget arbitrarily.
    """

    FALSE = 0
    TRUE = 1

    def __init__(
        self,
        node_limit: int = 1_000_000,
        deadline: float | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.node_limit = node_limit
        self.deadline = deadline
        self.clock: Callable[[], float] = (
            clock if clock is not None else time.monotonic
        )
        # nodes[i] = (var, low, high); the two terminal rows point at
        # themselves under a variable index past every real variable.
        self._nodes: list[tuple[int, int, int]] = [
            (_TERMINAL_VAR, 0, 0),
            (_TERMINAL_VAR, 1, 1),
        ]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._ite_memo: dict[tuple[int, int, int], int] = {}
        self._ite_calls = 0

    def __len__(self) -> int:
        return len(self._nodes)

    def var(self, index: int) -> int:
        """The BDD of variable ``index``."""
        return self._mk(index, self.FALSE, self.TRUE)

    def _mk(self, var: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (var, low, high)
        found = self._unique.get(key)
        if found is not None:
            return found
        node_id = len(self._nodes)
        if node_id >= self.node_limit:
            raise BddLimitError(
                f"BDD exceeded {self.node_limit} nodes", nodes=node_id
            )
        if (
            self.deadline is not None
            and node_id % _DEADLINE_POLL_INTERVAL == 0
            and self.clock() > self.deadline
        ):
            raise BddDeadlineError(
                f"BDD build passed its deadline at {node_id} nodes",
                nodes=node_id,
            )
        self._nodes.append(key)
        self._unique[key] = node_id
        return node_id

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``f ? g : h``."""
        if self.deadline is not None:
            self._ite_calls += 1
            if (
                self._ite_calls % _ITE_POLL_INTERVAL == 0
                and self.clock() > self.deadline
            ):
                raise BddDeadlineError(
                    f"BDD build passed its deadline at {len(self._nodes)} "
                    "nodes",
                    nodes=len(self._nodes),
                )
        # Terminal cases, with TRUE == 1 and FALSE == 0 spelled as literals
        # on this hot path.
        if f == 1:
            return g
        if f == 0:
            return h
        if g == h:
            return g
        if g == 1 and h == 0:
            return f
        key = (f, g, h)
        memo = self._ite_memo
        found = memo.get(key)
        if found is not None:
            return found
        # Top variable and cofactors straight from the node rows.  f is
        # internal here; a terminal row's variable sorts after every real
        # one, so it is never the top and its cofactors are itself.
        nodes = self._nodes
        f_var, f0, f1 = nodes[f]
        g_var, g0, g1 = nodes[g]
        h_var, h0, h1 = nodes[h]
        var = f_var
        if g_var < var:
            var = g_var
        if h_var < var:
            var = h_var
        if f_var != var:
            f0 = f1 = f
        if g_var != var:
            g0 = g1 = g
        if h_var != var:
            h0 = h1 = h
        low = self.ite(f0, g0, h0)
        high = self.ite(f1, g1, h1)
        result = self._mk(var, low, high)
        memo[key] = result
        return result

    # ------------------------------------------------------------- operators
    def apply_not(self, f: int) -> int:
        return self.ite(f, self.FALSE, self.TRUE)

    def apply_and(self, f: int, g: int) -> int:
        return self.ite(f, g, self.FALSE)

    def apply_or(self, f: int, g: int) -> int:
        return self.ite(f, self.TRUE, g)

    def apply_xor(self, f: int, g: int) -> int:
        return self.ite(f, self.apply_not(g), g)

    def apply_gate(self, kind: str, f: int, g: int | None = None) -> int:
        """Apply a netlist gate kind."""
        if kind == "NOT":
            return self.apply_not(f)
        if kind == "AND":
            return self.apply_and(f, g)
        if kind == "OR":
            return self.apply_or(f, g)
        if kind == "XOR":
            return self.apply_xor(f, g)
        if kind == "NAND":
            return self.apply_not(self.apply_and(f, g))
        if kind == "NOR":
            return self.apply_not(self.apply_or(f, g))
        if kind == "XNOR":
            return self.apply_not(self.apply_xor(f, g))
        raise ValueError(f"unknown gate kind {kind!r}")

    # --------------------------------------------------------------- queries
    def any_sat(self, f: int) -> dict[int, int] | None:
        """One satisfying assignment (var -> 0/1), or None when f == FALSE."""
        if f == self.FALSE:
            return None
        assignment: dict[int, int] = {}
        node = f
        while node > 1:
            var, low, high = self._nodes[node]
            if high != self.FALSE:
                assignment[var] = 1
                node = high
            else:
                assignment[var] = 0
                node = low
        return assignment

    def count_sat(self, f: int, num_vars: int) -> int:
        """Number of satisfying assignments over ``num_vars`` variables."""
        memo: dict[int, int] = {}

        def rec(node: int) -> tuple[int, int]:
            """Returns (count below top var of node, top var index)."""
            if node == self.FALSE:
                return 0, num_vars
            if node == self.TRUE:
                return 1, num_vars
            if node in memo:
                return memo[node], self._nodes[node][0]
            var, low, high = self._nodes[node]
            count_low, var_low = rec(low)
            count_high, var_high = rec(high)
            total = count_low * (1 << (var_low - var - 1)) + count_high * (
                1 << (var_high - var - 1)
            )
            memo[node] = total
            return total, var

        count, top = rec(f)
        return count * (1 << top)
